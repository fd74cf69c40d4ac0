package repro

// The made-up-latch window: a cooperative board halted at an on-target
// breakpoint mid-release and resumed before that release's deadline owes
// a deadline latch at the original instant. These tests checkpoint inside
// that window and hold the restored timeline to the uninterrupted one.

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/target"
	"repro/internal/value"
	"repro/models"
)

// latchWindowFixture was captured by latchWindowDebugger on the code that
// still kept a made-up latch as a board-level "deferred" record, before
// the scheduler's pending outputs carried it. Only the heater's execNs
// and worstNs were edited since, when a resumed cooperative release began
// to charge its cost (17780/1270 became 20380/2600).
const latchWindowFixture = "testdata/latch_window_142ms.json"

// latchWindowEnv drives the heater's room temperature as a pure function
// of time — a 400 ms triangle between 17 and 23 °C — so a restored
// session and an uninterrupted one see the same inputs without any host
// state in the checkpoint. The thermostat enters Heating at the 140 ms
// release and leaves it at 340 ms.
func latchWindowEnv(now uint64, b *target.Board) {
	ms := float64(now%400_000_000) / 1e6
	d := ms - 200
	if d < 0 {
		d = -d
	}
	_ = b.WriteInput("heater", "temp", value.F(17+0.03*d))
	_ = b.WriteInput("heater", "mode", value.I(2))
}

func latchWindowSession(t *testing.T) *Debugger {
	t.Helper()
	sys, err := models.Heating(models.HeatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := Debug(sys, DebugConfig{
		Transport:   Active,
		Environment: latchWindowEnv,
		Board:       target.Config{Baud: 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dbg
}

// latchWindowDebugger runs to the on-target hit of the Heating entry in
// the 140 ms release, clears the breakpoint and resumes 1 ms later, at
// 142 ms: the release completes, and its latch is owed at 145 ms.
func latchWindowDebugger(t *testing.T) *Debugger {
	t.Helper()
	dbg := latchWindowSession(t)
	if err := dbg.BreakOnState("bp", "heater.thermostat", "Heating"); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !dbg.Session.Paused() || !dbg.Board.Halted() {
		t.Fatal("on-target breakpoint never hit")
	}
	if err := dbg.Session.ClearBreakpoint("bp"); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Continue(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if dbg.Board.Halted() || dbg.Now() != 142_000_000 {
		t.Fatalf("halted=%v at %d ns, want resumed at 142 ms", dbg.Board.Halted(), dbg.Now())
	}
	return dbg
}

// TestRestoreInsideMadeUpLatchWindow checkpoints while the made-up latch
// is pending, restores into a fresh debugger, and requires both to run on
// to the same trace — the latch publishing at its original 145 ms
// instant on both.
func TestRestoreInsideMadeUpLatchWindow(t *testing.T) {
	live := latchWindowDebugger(t)
	cp, err := live.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp = jsonRoundtrip(t, cp)
	if p, _ := live.Board.ReadOutput("heater", "power"); p.Float() != 0 {
		t.Fatalf("heater.power = %v before the made-up latch", p)
	}
	if p := cp.Board.Sched.Pending; len(p) != 1 || p[0].Task != "heater" || p[0].At != 145_000_000 {
		t.Fatalf("checkpoint does not carry the made-up latch as a pending output: %+v", p)
	}
	fresh := latchWindowSession(t)
	if err := fresh.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Debugger{live, fresh} {
		if err := d.Run(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := formatTrace(fresh), formatTrace(live); got != want {
		diffTraces(t, got, want)
	}
	if fresh.Board.Cycles() != live.Board.Cycles() {
		t.Fatalf("cycles diverge: %d restored, %d live", fresh.Board.Cycles(), live.Board.Cycles())
	}
}

// TestLatchWindowFixtureRestores restores the stored checkpoint, whose
// made-up latch is a board "deferred" record. Restore folds the record
// into the scheduler's pending outputs, so a capture right after it reads
// what a live capture at the same instant reads, and the run on matches
// the live session the fixture was captured from.
func TestLatchWindowFixtureRestores(t *testing.T) {
	raw, err := os.ReadFile(latchWindowFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"deferred":[{"unit":"heater","at":145000000`)) {
		t.Fatal("fixture carries no deferred latch record")
	}
	cp, err := checkpoint.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fresh := latchWindowSession(t)
	if err := fresh.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	live := latchWindowDebugger(t)
	got, want := marshalCheckpoint(t, fresh), marshalCheckpoint(t, live)
	if !bytes.Equal(got, want) {
		t.Fatalf("capture after restoring the fixture differs from the live capture:\n%s\n%s", got, want)
	}
	for _, d := range []*Debugger{live, fresh} {
		if err := d.Run(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := formatTrace(fresh), formatTrace(live); got != want {
		diffTraces(t, got, want)
	}
	if fresh.Board.Cycles() != live.Board.Cycles() {
		t.Fatalf("cycles diverge: %d restored, %d live", fresh.Board.Cycles(), live.Board.Cycles())
	}
}

func marshalCheckpoint(t *testing.T, d *Debugger) []byte {
	t.Helper()
	cp, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
