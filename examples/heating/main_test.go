package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden")

// TestStdoutGolden pins everything the example prints. It runs in virtual
// time, so the output is deterministic. Regenerate with
//
//	go test ./examples/heating -update
func TestStdoutGolden(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/stdout.golden"
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
		t.Fatalf("stdout differs from %s\n--- got ---\n%s", golden, out.String())
	}
}
