package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the gmdf stdout goldens under testdata/")

// outPlaceholder stands for the per-test output directory in goldens.
const outPlaceholder = "$OUT"

// TestStdoutGoldens pins what gmdf prints for the invocations that cover
// its one-board and cluster output branches: plain runs, rewind,
// breakpoints, the passive transport, checkpoint restore and a scenario.
// Output paths print as $OUT, and every file a run writes is pinned by
// its sha256 at the end of the golden. Regenerate with
//
//	go test ./cmd/gmdf -run TestStdoutGoldens -update
func TestStdoutGoldens(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"heating", []string{"-model", "heating", "-ms", "500", "-trace", "$OUT/t", "-checkpoint", "$OUT/cp", "-svg", "$OUT/svg", "-gdm", "$OUT/gdm"}},
		{"heating_rewind", []string{"-model", "heating", "-ms", "600", "-rewind", "300", "-trace", "$OUT/t"}},
		{"heating_break", []string{"-model", "heating", "-ms", "500", "-break-machine", "heater.thermostat", "-break-state", "Heating", "-trace", "$OUT/t"}},
		{"heating_passive", []string{"-model", "heating", "-ms", "500", "-transport", "passive", "-trace", "$OUT/t"}},
		{"priorityload_rewind", []string{"-model", "priorityload", "-ms", "300", "-rewind", "100", "-trace", "$OUT/t"}},
		{"dist", []string{"-model", "dist", "-ms", "200", "-trace", "$OUT/t", "-checkpoint", "$OUT/cp", "-svg", "$OUT/svg"}},
		{"dist_rewind", []string{"-model", "dist", "-ms", "300", "-rewind", "150", "-trace", "$OUT/t"}},
		{"dist_restore", []string{"-model", "dist", "-restore", "../../testdata/v1_dist_51ms.json", "-ms", "100", "-trace", "$OUT/t"}},
		{"ring", []string{"-model", "ring", "-ms", "300", "-trace", "$OUT/t"}},
		{"scenario_heating", []string{"-scenario", "../../examples/dsl/heating.gmdf", "-trace", "$OUT/t"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(c.args))
			for i, a := range c.args {
				args[i] = strings.ReplaceAll(a, outPlaceholder, dir)
			}
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			got := strings.ReplaceAll(out.String(), dir, outPlaceholder)
			got += filesDigest(t, dir)

			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Fatalf("gmdf %s: stdout differs from %s\n--- got ---\n%s", strings.Join(c.args, " "), golden, got)
			}
		})
	}
}

// filesDigest lists every file in dir, sorted by name, with its sha256.
func filesDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "## %s/%s sha256 %x\n", outPlaceholder, n, sha256.Sum256(data))
	}
	return b.String()
}
