package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the gdmrender stdout goldens under testdata/")

// TestStdoutGoldens pins what gdmrender prints for the heating demo in
// each format, and the ASCII rendering of the saved JSON read back with
// -in, so a GDM survives the round trip through its file. Regenerate with
//
//	go test ./cmd/gdmrender -update
func TestStdoutGoldens(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"heating_ascii", []string{"-demo", "heating", "-format", "ascii"}},
		{"heating_svg", []string{"-demo", "heating", "-format", "svg"}},
		// heating_json is the -in file of the next case.
		{"heating_json", []string{"-demo", "heating", "-format", "json"}},
		{"in_heating_ascii", []string{"-in", filepath.Join("testdata", "heating_json.golden"), "-format", "ascii"}},
		{"dist_ascii", []string{"-demo", "dist"}},
		{"priorityload_ascii", []string{"-demo", "priorityload"}},
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
				t.Fatalf("gdmrender %s: stdout differs from %s\n--- got ---\n%s", strings.Join(c.args, " "), golden, out.String())
			}
		})
	}
}

// TestRefusedDemo: an unknown demo name is an error, not an empty render.
func TestRefusedDemo(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "nosuch"}, &out); err == nil {
		t.Fatal("demo nosuch accepted")
	}
}
