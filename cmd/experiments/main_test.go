package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden")

// TestReportGolden pins the E1–E12 report this command prints. Every
// experiment runs in virtual time, so the report is deterministic.
// Regenerate with
//
//	go test ./cmd/experiments -update
func TestReportGolden(t *testing.T) {
	got, err := experiments.All()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden")
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
		t.Fatalf("experiments report differs from %s\n--- got ---\n%s", golden, got)
	}
}
