package repro

// A checkpoint is restored, never copied: campaign workers restore one
// shared base checkpoint concurrently, and the recorder restores its
// stored checkpoints again and again. These tests hold Restore to that
// at the three state shapes campaigns fork from — a FixedPriority board
// mid-run with preempted jobs queued, a board halted at an on-target
// breakpoint (suspended VM machine, hot agent breakpoint), and a TDMA
// cluster mid-cycle with frames queued and in flight: two debuggers
// restore the same checkpoint at once and run on, the checkpoint's bytes
// do not move, and both runs produce the same trace.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

// checkSharedRestore restores cp into two fresh debuggers at once, lets
// each run on for d (resume after a breakpoint halt), and checks that
// cp still marshals to its original bytes, that both traces agree, and
// that the deprecated Clone shim round-trips to the same bytes.
func checkSharedRestore(t *testing.T, cp *checkpoint.Checkpoint, fresh func(*testing.T) *Debugger, d time.Duration) {
	t.Helper()
	want, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dbgs := []*Debugger{fresh(t), fresh(t)}
	errs := make([]error, len(dbgs))
	var wg sync.WaitGroup
	for i, dbg := range dbgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = dbg.RestoreCheckpoint(cp); errs[i] == nil {
				errs[i] = dbg.Continue(d)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	after, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, want) {
		t.Fatal("restoring the checkpoint and running on changed its serialized form")
	}
	a, b := dbgs[0].Session.Trace.FormatStable(), dbgs[1].Session.Trace.FormatStable()
	if a != b {
		diffTraces(t, a, b)
	}
	if dbgs[0].Session.Trace.Len() <= cp.Session().Trace.Len() {
		t.Fatalf("no events after the restore in %v — the scenario is inert", d)
	}
	shim, err := cp.Clone().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shim, want) {
		t.Fatalf("Clone round trip marshals differently:\nclone: %s\norig:  %s", shim, want)
	}
}

func TestSharedRestoreMidPreemption(t *testing.T) {
	dbg := preemptDebugger(t)
	// 40 ms into the interference scenario the hog is mid-release and
	// lowly's preempted job sits in the ready queue.
	if err := dbg.Run(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cp, err := dbg.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Board.Sched.Jobs) == 0 {
		t.Fatal("not mid-release: no live jobs captured")
	}
	checkSharedRestore(t, cp, preemptDebugger, 20*time.Millisecond)
}

func TestSharedRestoreHaltedAtBreakpoint(t *testing.T) {
	dbg := heatingDebugger(t, Active)
	if err := dbg.BreakOnState("restore-bp", "heater.thermostat", "Heating"); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !dbg.Session.Paused() {
		t.Fatal("on-target breakpoint never hit")
	}
	cp, err := dbg.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if j := cp.Board.Sched.Jobs; len(j) != 1 || !j[0].Suspended || len(cp.Board.Units) != 1 {
		t.Fatalf("not halted mid-instruction: no suspended job and machine captured: %+v %+v", j, cp.Board.Units)
	}
	fresh := func(t *testing.T) *Debugger { return heatingDebugger(t, Active) }
	checkSharedRestore(t, cp, fresh, 200*time.Millisecond)
}

func TestSharedRestoreMidTDMACycle(t *testing.T) {
	dbg := distributedDebugger(t)
	// 51 ms: a frame has just joined nodeA's TX queue or is on the wire
	// (same instant the golden mid-cycle restore test uses).
	if err := dbg.Run(51 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cp, err := dbg.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cluster == nil || len(cp.Cluster.Net.Flights) == 0 {
		t.Fatal("not mid-cycle: no frames queued or in flight")
	}
	checkSharedRestore(t, cp, distributedDebugger, 49*time.Millisecond)

	// A restored cluster resumes exactly like the uninterrupted one.
	restored := distributedDebugger(t)
	if err := restored.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Debugger{restored, dbg} {
		if err := d.Run(49 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := restored.Session.Trace.FormatStable(), dbg.Session.Trace.FormatStable(); got != want {
		diffTraces(t, got, want)
	}
}
