package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/farm"
	"repro/models"
)

// TestFailureStillFlushesTrace: a failure after the run (unwritable -svg
// path) must not truncate the -trace artifact — the deferred flush writes
// the same bytes a clean run writes. This is the regression test for the
// old main(), whose log.Fatal calls skipped every deferred cleanup.
func TestFailureStillFlushesTrace(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.trace")
	if err := run([]string{"-model", "ring", "-ms", "200", "-trace", clean}, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	failed := filepath.Join(dir, "failed.trace")
	badSVG := filepath.Join(dir, "no-such-dir", "frame.svg")
	err = run([]string{"-model", "ring", "-ms", "200", "-trace", failed, "-svg", badSVG}, io.Discard)
	if err == nil {
		t.Fatal("run with unwritable -svg path did not fail")
	}
	got, err := os.ReadFile(failed)
	if err != nil {
		t.Fatalf("failed run left no trace file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trace flushed on the failure path differs from a clean run's trace")
	}
}

// TestFailureStillFlushesClusterTrace: same contract on the distributed
// path.
func TestFailureStillFlushesClusterTrace(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.trace")
	if err := run([]string{"-model", "dist", "-ms", "60", "-trace", clean}, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	failed := filepath.Join(dir, "failed.trace")
	badSVG := filepath.Join(dir, "no-such-dir", "frame.svg")
	if err := run([]string{"-model", "dist", "-ms", "60", "-trace", failed, "-svg", badSVG}, io.Discard); err == nil {
		t.Fatal("cluster run with unwritable -svg path did not fail")
	}
	got, err := os.ReadFile(failed)
	if err != nil {
		t.Fatalf("failed cluster run left no trace file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cluster trace flushed on the failure path differs from a clean run's trace")
	}
}

// TestBadFlagsReturnError: argument problems come back as errors, they do
// not kill the process.
func TestBadFlagsReturnError(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "no-such-model", "-ms", "10"},
		{"-model", "dist", "-ms", "10", "-transport", "passive"},
		{"-model", "dist", "-ms", "10", "-campaign", "4", "-campaign-loss", "bogus"},
		{"-model", "heating", "-ms", "10", "-break-machine", "heater.thermostat", "-break-state", "Heatin"},
		{"-model", "heating", "-ms", "10", "-break-machine", "heater.nosuch", "-break-state", "Heating"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("run(%v) did not fail", args)
		}
	}
}

// TestRefusedModel: a name that is neither a built-in model nor a file is
// named as an unknown model with the built-in names, as comdesgen and
// targetsim name it — not as a missing file.
func TestRefusedModel(t *testing.T) {
	err := run([]string{"-model", "nosuch", "-ms", "10"}, io.Discard)
	if err == nil {
		t.Fatal("model nosuch accepted")
	}
	want := fmt.Sprintf("unknown model %q (have %v)", "nosuch", models.Names())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want it to contain %q", err, want)
	}
}

// TestConnectMatchesInProcess: the -connect client mode against a live
// farm server produces a trace byte-identical to the in-process run of
// the same model and budget, for every built-in model — the CI
// determinism diff, in miniature.
func TestConnectMatchesInProcess(t *testing.T) {
	srv, err := farm.NewServer(farm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			dir := t.TempDir()
			local := filepath.Join(dir, "local.trace")
			remote := filepath.Join(dir, "remote.trace")
			if err := run([]string{"-model", model, "-ms", "300", "-trace", local}, io.Discard); err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			if err := run([]string{"-connect", lis.Addr().String(), "-model", model, "-ms", "300", "-trace", remote}, &buf); err != nil {
				t.Fatal(err)
			}
			a, err := os.ReadFile(local)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(remote)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("remote-driven trace differs from in-process trace (%d vs %d bytes)", len(b), len(a))
			}
			if !strings.Contains(buf.String(), "created session") {
				t.Fatalf("unexpected -connect output:\n%s", buf.String())
			}
		})
	}
}

// TestConnectDetachResume: -detach hands back a digest that -resume turns
// into the rest of the run, byte-identically.
func TestConnectDetachResume(t *testing.T) {
	srv, err := farm.NewServer(farm.Options{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()

	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	if err := run([]string{"-connect", addr, "-model", "heating", "-ms", "600", "-trace", full}, io.Discard); err != nil {
		t.Fatal(err)
	}
	digestFile := filepath.Join(dir, "digest")
	if err := run([]string{"-connect", addr, "-model", "heating", "-ms", "300", "-detach", "-digest-out", digestFile}, io.Discard); err != nil {
		t.Fatal(err)
	}
	digest, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, "resumed.trace")
	if err := run([]string{"-connect", addr, "-model", "heating", "-resume", strings.TrimSpace(string(digest)), "-ms", "300", "-trace", resumed}, io.Discard); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("detach/resume trace differs from the uninterrupted run")
	}
}

// TestRestoreRefusesParallelCheckpoint: -restore of a checkpoint written
// by the removed parallel cluster executor fails with an error naming it.
func TestRestoreRefusesParallelCheckpoint(t *testing.T) {
	cp := filepath.Join("..", "..", "testdata", "legacy_parallel_checkpoint.json")
	err := run([]string{"-model", "dist", "-restore", cp, "-ms", "60"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "removed parallel cluster executor") {
		t.Fatalf("restore of a parallel checkpoint: %v", err)
	}
}

// TestBreakReportsHaltInstant: on both paths, in-process and -connect,
// "target halted at" prints the t of the trace's first Break record — the
// instant the agent stopped the board — not the later host time at which
// the Break frame arrived. Both paths clear, step on the target and
// continue alike, so they write the same trace, and its one step ends in
// a Stepped record, not in a second Break.
func TestBreakReportsHaltInstant(t *testing.T) {
	srv, err := farm.NewServer(farm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	args := []string{"-model", "heating", "-ms", "500", "-break-machine", "heater.thermostat", "-break-state", "Heating"}
	traces := map[string]string{}
	for _, mode := range []struct {
		name  string
		extra []string
	}{
		{"in-process", nil},
		{"connect", []string{"-connect", lis.Addr().String()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "t")
			var out strings.Builder
			if err := run(append(append(mode.extra, args...), "-trace", tracePath), &out); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			traces[mode.name] = string(data)
			if n := strings.Count(string(data), " Stepped "); n != 1 {
				t.Fatalf("trace holds %d Stepped records, want 1", n)
			}
			var haltNs uint64
			for _, line := range strings.Split(string(data), "\n") {
				if strings.Contains(line, " Break ") {
					if _, err := fmt.Sscanf(line[strings.Index(line, " t="):], " t=%d", &haltNs); err != nil {
						t.Fatalf("Break record %q: %v", line, err)
					}
					break
				}
			}
			if haltNs == 0 {
				t.Fatal("trace holds no Break record")
			}
			want := fmt.Sprintf("breakpoint hit: target halted at %.3f ms\n", float64(haltNs)/1e6)
			if !strings.Contains(out.String(), want) {
				t.Fatalf("want %q (the Break record's t) in the output:\n%s", want, out.String())
			}
		})
	}
	if traces["in-process"] != traces["connect"] {
		t.Fatalf("in-process and -connect traces differ:\n%s\n---\n%s", traces["in-process"], traces["connect"])
	}
}
