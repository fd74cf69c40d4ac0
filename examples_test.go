package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryExampleHasStdoutGolden holds every runnable example to a stdout
// golden: each examples/*/main.go needs a main_test.go that runs the
// example through run(out) and compares it with testdata/stdout.golden,
// and that golden must exist. An example without one is pinned by nothing.
func TestEveryExampleHasStdoutGolden(t *testing.T) {
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no examples found")
	}
	for _, main := range mains {
		dir := filepath.Dir(main)
		src, err := os.ReadFile(filepath.Join(dir, "main_test.go"))
		if err != nil {
			t.Errorf("%s has no stdout golden test: %v", dir, err)
			continue
		}
		for _, want := range []string{"run(&out)", `"testdata/stdout.golden"`} {
			if !strings.Contains(string(src), want) {
				t.Errorf("%s/main_test.go does not contain %s", dir, want)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "testdata", "stdout.golden")); err != nil {
			t.Errorf("%s: %v", dir, err)
		}
	}
}
