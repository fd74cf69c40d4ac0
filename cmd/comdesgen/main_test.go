package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/models"
)

var update = flag.Bool("update", false, "rewrite the comdesgen stdout goldens under testdata/")

// TestStdoutGoldens pins the generated listing, the symbol table and the
// IR disassembly comdesgen prints for the built-in models. Regenerate with
//
//	go test ./cmd/comdesgen -update
func TestStdoutGoldens(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"heating", []string{"-model", "heating", "-instrument", "-disasm"}},
		{"traffic", []string{"-model", "traffic"}},
		{"ring", []string{"-model", "ring"}},
		{"dist", []string{"-model", "dist"}},
		{"priorityload", []string{"-model", "priorityload"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if out.String() != string(want) {
				t.Fatalf("comdesgen %s: stdout differs from %s\n--- got ---\n%s", strings.Join(c.args, " "), golden, out.String())
			}
		})
	}
}

// TestRefusedModel: a name that is neither a built-in model nor a file is
// an error, not an empty listing, and the error names it as an unknown
// model with the built-in names, as gdmrender's does — not as a missing
// file.
func TestRefusedModel(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-model", "nosuch"}, &out)
	if err == nil {
		t.Fatal("model nosuch accepted")
	}
	want := fmt.Sprintf("unknown model %q (have %v)", "nosuch", models.Names())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want it to contain %q", err, want)
	}
}
