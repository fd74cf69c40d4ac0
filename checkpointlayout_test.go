package repro

// Checkpoint layout pins: the bytes a checkpoint is written in are part
// of the contract (stored checkpoints, the farm's kept checkpoints and the
// benchmark digests over them), so a refactor of the scheduler or board
// state must not move them outside the cases it names.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dtm"
	"repro/models"
)

// TestCheckpointLayoutPinned pins the sha256 of the checkpoint JSON of the
// cooperative heating and ring boards and the fixed-priority priorityload
// board at instants outside any debugger suspension: mid-window for a
// pending deadline latch, and (priorityload) with jobs in flight.
func TestCheckpointLayoutPinned(t *testing.T) {
	pins := []struct {
		model string
		at    []time.Duration
		want  []string
	}{
		{"heating", []time.Duration{37 * time.Millisecond, 252 * time.Millisecond, 1003 * time.Millisecond}, []string{
			"4b7fd7868e59b0dc7eb89844bafc05c9b34c3f7e404d80d27c25a3b07832f731",
			"5a7470caecebd297df0af608a331e7e6ef23998dd4d37cd5588f113cb2977975",
			"26a282addb408f7a30d95b6f63013eefe5935a8c33a8bce0f71f932dcfe4d0e2",
		}},
		{"ring", []time.Duration{37 * time.Millisecond, 252 * time.Millisecond, 1003 * time.Millisecond}, []string{
			"ce84e27b191dea5f106ffdd1aff4c5d8b3a1cf3a2ebe9878773f9e476ae01b8e",
			"3c34c116291dfc0216b64b79df964c2d63d9d19bdf8e61af25e9d11dfe28e5b8",
			"917e4d81a8d6d0decc79cbe78d943bc0bac62f940f9ae3c276ca1dbe88060572",
		}},
		{"priorityload", []time.Duration{8 * time.Millisecond, 40 * time.Millisecond, 251 * time.Millisecond}, []string{
			"27d2e19c5dd2b9a653ab74e2aa51a79c2a218979bf0b7bc5532ba64e8e7c0f1b",
			"c086b98420cf55372dbdefa21b02fa6be8036f8cb50dc8cfc0330fb51b8f68ba",
			"e91cd13c23f3ce99dbb546dbf09ab20e35bfbd065885e4c220deec45f65e4eeb",
		}},
	}
	for _, p := range pins {
		sys, err := models.ByName(p.model)
		if err != nil {
			t.Fatal(err)
		}
		dbg, err := Debug(sys, DebugConfig{
			Board:       StandardBoardConfig(p.model),
			Environment: StandardEnvironment(p.model),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, at := range p.at {
			if err := dbg.Run(at - time.Duration(dbg.Now())); err != nil {
				t.Fatal(err)
			}
			cp, err := dbg.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			sched := cp.Board.Sched
			if sched.Halted || cp.Board.Susp != nil {
				t.Fatalf("%s at %v: board is suspended", p.model, at)
			}
			if dtm.Policy(sched.Policy) == dtm.Cooperative && len(sched.Pending) == 0 {
				t.Fatalf("%s at %v: no pending deadline latch to pin", p.model, at)
			}
			raw, err := cp.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != p.want[i] {
				t.Errorf("%s at %v: checkpoint sha256 %s, pinned %s", p.model, at, got, p.want[i])
			}
		}
	}
}

// coopSuspFixture is a heating checkpoint written while a cooperative
// board is halted mid-release at an on-target breakpoint: the 140 ms
// heater release, stopped at the Heating entry, captured at 141 ms. It is
// in the layout that keeps the suspended machine as the board's "susp"
// record.
const coopSuspFixture = "testdata/coop_susp_141ms.json"

// coopSuspDebugger is the live session the fixture was captured from.
func coopSuspDebugger(t *testing.T) *Debugger {
	t.Helper()
	dbg := latchWindowSession(t)
	if err := dbg.BreakOnState("bp", "heater.thermostat", "Heating"); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !dbg.Board.Halted() || dbg.Now() != 141_000_000 {
		t.Fatalf("halted=%v at %d ns, want halted at 141 ms", dbg.Board.Halted(), dbg.Now())
	}
	return dbg
}

// TestCoopSuspFixtureRestores restores the stored suspension into a fresh
// debugger and holds it to the live session: the same capture right after
// the restore, and the same trace, cycles and task counters after both
// resume with the breakpoint armed (it trips again at 142 ms), clear it
// and run on.
func TestCoopSuspFixtureRestores(t *testing.T) {
	raw, err := os.ReadFile(coopSuspFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"susp":{"unit":"heater","rel":140000000`)) {
		t.Fatal("fixture carries no cooperative suspension")
	}
	cp, err := checkpoint.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fresh := latchWindowSession(t)
	if err := fresh.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	live := coopSuspDebugger(t)
	if got, want := marshalCheckpoint(t, fresh), marshalCheckpoint(t, live); !bytes.Equal(got, want) {
		t.Fatalf("capture after restoring the fixture differs from the live capture:\n%s\n%s", got, want)
	}
	for _, d := range []*Debugger{live, fresh} {
		if err := d.Continue(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := d.Session.ClearBreakpoint("bp"); err != nil {
			t.Fatal(err)
		}
		// The first run on stops at 144 ms, where the host receives the
		// re-hit's Break frame; the second runs to 444 ms.
		for range 2 {
			if err := d.Continue(300 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	if live.Now() != 444_000_000 || live.Board.Halted() {
		t.Fatalf("live session at %d ns, halted=%v; want running at 444 ms", live.Now(), live.Board.Halted())
	}
	if got, want := formatTrace(fresh), formatTrace(live); got != want {
		diffTraces(t, got, want)
	}
	if fresh.Board.Cycles() != live.Board.Cycles() {
		t.Fatalf("cycles diverge: %d restored, %d live", fresh.Board.Cycles(), live.Board.Cycles())
	}
	for i, lt := range live.Board.Tasks() {
		ft := fresh.Board.Tasks()[i]
		got := fmt.Sprint(ft.Releases, ft.DeadlineMisses, ft.ExecNs, ft.WorstNs, ft.Suspensions)
		want := fmt.Sprint(lt.Releases, lt.DeadlineMisses, lt.ExecNs, lt.WorstNs, lt.Suspensions)
		if got != want {
			t.Errorf("task %s counters: restored %s, live %s", lt.Name, got, want)
		}
	}
}
