package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/farm"
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
		{"-model", "dist", "-ms", "10", "-cluster-exec", "bogus"},
		{"-model", "dist", "-ms", "10", "-transport", "passive"},
		{"-model", "dist", "-ms", "10", "-campaign", "4", "-campaign-loss", "bogus"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("run(%v) did not fail", args)
		}
	}
}

// TestConnectMatchesInProcess: the -connect client mode against a live
// farm server produces a trace byte-identical to the in-process run of
// the same model and budget — the CI determinism diff, in miniature.
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

	dir := t.TempDir()
	local := filepath.Join(dir, "local.trace")
	remote := filepath.Join(dir, "remote.trace")
	if err := run([]string{"-model", "heating", "-ms", "300", "-trace", local}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-connect", lis.Addr().String(), "-model", "heating", "-ms", "300", "-trace", remote}, &buf); err != nil {
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
		t.Fatal("remote-driven trace differs from in-process trace")
	}
	if !strings.Contains(buf.String(), "created session") {
		t.Fatalf("unexpected -connect output:\n%s", buf.String())
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

// TestRestoreParallelCheckpointByDefault: -restore of a cluster checkpoint
// written under -cluster-exec parallel runs in the checkpoint's mode when
// -cluster-exec is left at auto, and finishes with the trace of an
// uninterrupted parallel run; an explicit serial mode is refused.
func TestRestoreParallelCheckpointByDefault(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	if err := run([]string{"-model", "dist", "-ms", "120", "-cluster-exec", "parallel", "-trace", full}, io.Discard); err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(dir, "cp.json")
	if err := run([]string{"-model", "dist", "-ms", "60", "-cluster-exec", "parallel", "-checkpoint", cp}, io.Discard); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-model", "dist", "-restore", cp, "-ms", "60", "-cluster-exec", "serial"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "parallel-mode snapshot") {
		t.Fatalf("explicit serial restore of a parallel checkpoint: %v", err)
	}
	resumed := filepath.Join(dir, "resumed.trace")
	if err := run([]string{"-model", "dist", "-restore", cp, "-ms", "60", "-trace", resumed}, io.Discard); err != nil {
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
		t.Fatal("parallel checkpoint restored under -cluster-exec auto diverges from the uninterrupted parallel run")
	}
}
