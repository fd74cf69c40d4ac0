package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the targetsim stdout goldens under testdata/")

// TestStdoutGoldens pins the decoded command stream and the summary line
// targetsim prints for each model it runs. Everything runs in virtual
// time, so the output is deterministic. Regenerate with
//
//	go test ./cmd/targetsim -update
func TestStdoutGoldens(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"heating", []string{"-model", "heating", "-ms", "500", "-n", "100000"}},
		{"traffic", []string{"-model", "traffic", "-ms", "500"}},
		{"ring", []string{"-model", "ring", "-ms", "200"}},
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
				t.Fatalf("targetsim %s: stdout differs from %s\n--- got ---\n%s", strings.Join(c.args, " "), golden, out.String())
			}
		})
	}
}

// TestRefusedModels: a name targetsim cannot run is an error, not a panic
// or an empty run — an unknown model, and a multi-node one, which needs a
// cluster rather than one board.
func TestRefusedModels(t *testing.T) {
	for _, model := range []string{"nosuch", "dist"} {
		var out strings.Builder
		if err := run([]string{"-model", model}, &out); err == nil {
			t.Errorf("model %q accepted", model)
		}
	}
}
