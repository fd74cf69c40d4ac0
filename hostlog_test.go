package repro

// Tests of the checkpoint recorder's one host-action log: what a recorded
// session logs, and that a replay re-applies exactly what the host did,
// where it did it.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/value"
)

// TestReplayOneShotBreakpoint arms an on-target one-shot breakpoint on the
// heating thermostat entering Heating, records with 20 ms checkpoints,
// continues from the pause at 29 ms to 400 ms, rewinds to 22 ms and replays. The
// session disarms a one-shot breakpoint itself when its hit arrives; on
// replay it disarms it again, and exactly once, so trace and checkpoint
// bytes at 400 ms equal the live run's.
func TestReplayOneShotBreakpoint(t *testing.T) {
	dbg := heatingDebugger(t, Active)
	cond, err := dbg.StateCond("heater.thermostat", "Heating")
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.Session.SetBreakpoint(engine.Breakpoint{
		ID: "heat", Event: protocol.EvStateEnter, Source: "heater.thermostat", Arg1: "Heating",
		TargetCond: cond, OneShot: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := dbg.EnableCheckpointing(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !dbg.Session.Paused() || dbg.Now() != 29_000_000 {
		t.Fatalf("expected the one-shot hit to pause the session at 29 ms (paused %v, now %d ns)", dbg.Session.Paused(), dbg.Now())
	}
	if err := dbg.Continue(400*time.Millisecond - time.Duration(dbg.Now())); err != nil {
		t.Fatal(err)
	}
	if dbg.Now() != 400_000_000 || dbg.Session.Paused() {
		t.Fatalf("continue stopped at %d ns (paused %v), want 400 ms", dbg.Now(), dbg.Session.Paused())
	}
	want, wantCp := formatTrace(dbg), checkpointBytes(t, dbg)

	if _, err := dbg.Session.RewindTo(22_000_000); err != nil {
		t.Fatal(err)
	}
	if ok, err := dbg.Session.ReplayUntil(func(now uint64) bool { return now >= 400_000_000 }, 400_000_000); err != nil || !ok {
		t.Fatalf("replay never reached 400 ms (now %d, err %v)", dbg.Now(), err)
	}
	if got := formatTrace(dbg); got != want {
		diffTraces(t, got, want)
	}
	if !bytes.Equal(checkpointBytes(t, dbg), wantCp) {
		t.Fatal("checkpoint after the replay differs from the live run's")
	}
}

// replayTo rewinds d to from, replays to the frontier at end, and
// requires the trace and checkpoint bytes there to equal want and wantCp.
func replayTo(t *testing.T, d *Debugger, from, end uint64, want string, wantCp []byte) {
	t.Helper()
	if _, err := d.Session.RewindTo(from); err != nil {
		t.Fatal(err)
	}
	if ok, err := d.Session.ReplayUntil(func(now uint64) bool { return now >= end }, end); err != nil || !ok {
		t.Fatalf("replay from %d never reached %d (now %d, err %v)", from, end, d.Now(), err)
	}
	if got := formatTrace(d); got != want {
		diffTraces(t, got, want)
	}
	if !bytes.Equal(checkpointBytes(t, d), wantCp) {
		t.Fatalf("replay from %d: checkpoint at %d differs from the live run's", from, end)
	}
}

// TestReplayOffGridHostAction pokes the preempt board at an off-grid
// instant of a live run (a bounded ReplayUntil past the frontier lands at
// 20.500001 ms): a replay through that instant must stop there and
// re-apply the poke, so the replayed trace equals the live one.
func TestReplayOffGridHostAction(t *testing.T) {
	dbg := preemptDebugger(t)
	if _, err := dbg.EnableCheckpointing(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := dbg.Session.ReplayUntil(func(uint64) bool { return false }, 500_001); err != nil {
		t.Fatal(err)
	}
	if dbg.Now() != 20_500_001 {
		t.Fatalf("live bounded run landed at %d, want 20500001", dbg.Now())
	}
	if err := dbg.WriteInput("lowly", "x", value.F(7)); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	end, want, wantCp := dbg.Now(), formatTrace(dbg), checkpointBytes(t, dbg)
	if end != 41_000_000 {
		t.Fatalf("run after the poke ended at %d, want 41 ms", end)
	}
	replayTo(t, dbg, 15_000_000, end, want, wantCp)
}

// TestHostActionBelowFrontierForks pokes the preempt board after a rewind
// to 22 ms: the poke forks the timeline there. The recorded future past
// 22 ms — its checkpoints and logs — is dropped, the forked run becomes
// the recorded timeline, and a replay of it re-applies the poke.
func TestHostActionBelowFrontierForks(t *testing.T) {
	dbg := preemptDebugger(t)
	if _, err := dbg.EnableCheckpointing(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := dbg.Session.RewindTo(22_000_000); err != nil {
		t.Fatal(err)
	}
	if err := dbg.WriteInput("lowly", "x", value.F(7)); err != nil {
		t.Fatal(err)
	}
	if dbg.Recorder.Replaying() {
		t.Fatal("a host action below the frontier must end the replay")
	}
	for _, cp := range dbg.Recorder.Checkpoints() {
		if cp.Time > 22_000_000 {
			t.Fatalf("checkpoint at %d survived the fork at 22 ms", cp.Time)
		}
	}
	if host := dbg.Recorder.Host(); len(host) != 1 || host[0].At != 22_000_000 {
		t.Fatalf("host log after the fork: %+v, want the one poke at 22 ms", host)
	}
	if err := dbg.RunNs(40_000_000 - dbg.Now()); err != nil {
		t.Fatal(err)
	}
	replayTo(t, dbg, 25_000_000, 40_000_000, formatTrace(dbg), checkpointBytes(t, dbg))
}

// TestReplayEnvironmentWritesAtOtherReleases runs heating on its standard
// plant, which writes heater.temp at every monitor release as well as at
// the heater's own. A replay must re-apply the writes made at both
// release sites: from a rewind to 22 ms or to 400 ms, RAM and checkpoint
// bytes at 429 ms equal the live run's.
func TestReplayEnvironmentWritesAtOtherReleases(t *testing.T) {
	dbg := heatingDebugger(t, Active)
	if _, err := dbg.EnableCheckpointing(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(429 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	end, want, wantCp := dbg.Now(), formatTrace(dbg), checkpointBytes(t, dbg)
	for _, from := range []uint64{22_000_000, 400_000_000} {
		replayTo(t, dbg, from, end, want, wantCp)
	}
}

// TestRecordingLogsNoTraffic records the golden dist cluster for 2
// virtual s without any host action: bus deliveries and re-latches are
// made again by every replay, so the host log stays empty.
func TestRecordingLogsNoTraffic(t *testing.T) {
	dbg := distributedDebugger(t)
	if _, err := dbg.EnableCheckpointing(0); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := len(dbg.Recorder.Host()); n != 0 {
		t.Fatalf("host log holds %d records after a run with no host action", n)
	}
}

// TestForkKeepsPlantInRange records heating on its standard plant to
// 100 ms, rewinds to 22 ms and continues, which forks the timeline there.
// The plant's room and clock belong to the 100 ms it ran to, so up to
// there the forked run gets the plant's logged writes and the plant runs
// on only past it: heater.temp__io stays inside the room's physical range
// on the whole forked run, and a replay of the fork equals it.
func TestForkKeepsPlantInRange(t *testing.T) {
	dbg := heatingDebugger(t, Active)
	if _, err := dbg.EnableCheckpointing(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := dbg.Session.RewindTo(22_000_000); err != nil {
		t.Fatal(err)
	}
	dbg.Session.Continue()
	if dbg.Recorder.Replaying() {
		t.Fatal("continue below the frontier must fork the timeline")
	}
	runPlantInRange(t, dbg, 200_000_000)
	replayTo(t, dbg, 30_000_000, 200_000_000, formatTrace(dbg), checkpointBytes(t, dbg))
}

// heatBreak records heating on its standard plant with 20 ms checkpoints
// and an on-target breakpoint "b" on the thermostat entering Heating,
// runs to the hit at 29 ms, and takes a host-side Session.Step, which
// pauses at the next model event, at 32 ms. (The times depend on the id:
// it crosses the line in the InSetBreak and Break frames.)
func heatBreak(t *testing.T) *Debugger {
	t.Helper()
	dbg := heatingDebugger(t, Active)
	if err := dbg.BreakOnState("b", "heater.thermostat", "Heating"); err != nil {
		t.Fatal(err)
	}
	if _, err := dbg.EnableCheckpointing(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !dbg.Session.Paused() || dbg.Now() != 29_000_000 {
		t.Fatalf("expected the hit to pause the session at 29 ms (paused %v, now %d ns)", dbg.Session.Paused(), dbg.Now())
	}
	if err := dbg.StepEvent(time.Second); err != nil {
		t.Fatal(err)
	}
	if !dbg.Session.Paused() || dbg.Now() != 32_000_000 {
		t.Fatalf("expected the step to pause the session at 32 ms (paused %v, now %d ns)", dbg.Session.Paused(), dbg.Now())
	}
	return dbg
}

// clearContinue clears breakpoint id, continues and runs for dur, and
// requires the run to end at end.
func clearContinue(t *testing.T, d *Debugger, id string, dur time.Duration, end uint64) {
	t.Helper()
	if err := d.Session.ClearBreakpoint(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Continue(dur); err != nil {
		t.Fatal(err)
	}
	if d.Now() != end {
		t.Fatalf("clear and continue ended at %d ns, want %d", d.Now(), end)
	}
}

// TestReplayHostStep replays a host-side Session.Step: it resumes the
// board directly, not over the wire, and a replay must resume it again.
// After clear and continue, the Break frame already in flight pauses the
// session again at 37 ms; from a rewind to 33 ms the replay to 37 ms
// equals the live run.
func TestReplayHostStep(t *testing.T) {
	dbg := heatBreak(t)
	clearContinue(t, dbg, "b", 200*time.Millisecond, 37_000_000)
	replayTo(t, dbg, 33_000_000, dbg.Now(), formatTrace(dbg), checkpointBytes(t, dbg))
}

// TestReplayContinueAfterHostStep takes a checkpoint at 32 ms with the
// session still in step mode, clears, continues (the in-flight Break
// pauses again at 37 ms) and continues to 137 ms. Continue leaves step
// mode, and its replay from the 32 ms checkpoint must leave it too, or
// the replay pauses for a step at the next model event.
func TestReplayContinueAfterHostStep(t *testing.T) {
	dbg := heatBreak(t)
	if _, err := dbg.Recorder.TakeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	clearContinue(t, dbg, "b", 100*time.Millisecond, 37_000_000)
	if err := dbg.Continue(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if dbg.Now() != 137_000_000 {
		t.Fatalf("second continue ended at %d ns, want 137 ms", dbg.Now())
	}
	replayTo(t, dbg, 35_000_000, dbg.Now(), formatTrace(dbg), checkpointBytes(t, dbg))
}

// TestReplayHostBreakpoint sets a host-side breakpoint between runs: it
// never touches the wire, and a replay must install it again. It pauses
// at 55 ms; after clear and continue to 105 ms, the replay from a rewind
// to 45 ms equals the live run.
func TestReplayHostBreakpoint(t *testing.T) {
	dbg := heatingDebugger(t, Active)
	if _, err := dbg.EnableCheckpointing(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Session.SetBreakpoint(engine.Breakpoint{ID: "h", Event: protocol.EvSignal, Source: "heater.power"}); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !dbg.Session.Paused() || dbg.Now() != 55_000_000 {
		t.Fatalf("expected the host-side breakpoint to pause at 55 ms (paused %v, now %d ns)", dbg.Session.Paused(), dbg.Now())
	}
	clearContinue(t, dbg, "h", 50*time.Millisecond, 105_000_000)
	replayTo(t, dbg, 45_000_000, dbg.Now(), formatTrace(dbg), checkpointBytes(t, dbg))
}

// TestFailedCommandIsNotLogged: a command that fails validation does
// nothing, so it is not a host action.
func TestFailedCommandIsNotLogged(t *testing.T) {
	dbg := heatingDebugger(t, Active)
	if _, err := dbg.EnableCheckpointing(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, bp := range []engine.Breakpoint{
		{Event: protocol.EvSignal},
		{ID: "c", Event: protocol.EvSignal, Cond: "value >"},
		{ID: "t", Event: protocol.EvSignal, TargetCond: "heater.power >"},
	} {
		if err := dbg.Session.SetBreakpoint(bp); err == nil {
			t.Fatalf("SetBreakpoint accepted %+v", bp)
		}
	}
	if err := dbg.Session.ClearBreakpoint("none"); err == nil {
		t.Fatal("ClearBreakpoint accepted an unknown id")
	}
	if n := len(dbg.Recorder.Host()); n != 0 {
		t.Fatalf("host log holds %d records after commands that failed validation", n)
	}
}

// TestRestoreOnRecordingForks restores a checkpoint taken at 20 ms into a
// heating session recorded to 100 ms: the restore is a fork at 20 ms. The
// checkpoint is the session's own, or another debugger's whose thermostat
// was put back to Idle over the wire at 10 ms. The plant's room and clock
// belong to the 100 ms it ran to, so heater.temp__io stays inside the
// room's physical range for 200 ms after the restore, no checkpoint past
// 20 ms survives it, and replays of the fork — from 10 ms, through the
// restore, and from 30 ms — equal the forked run.
func TestRestoreOnRecordingForks(t *testing.T) {
	other := heatingDebugger(t, Active)
	if err := other.RunNs(10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := other.Serials["main"].Send(protocol.Instruction{Type: protocol.InWriteVar, Source: "heater.thermostat.__state", Value: 0}); err != nil {
		t.Fatal(err)
	}
	if err := other.RunNs(10_000_000); err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, own := range []bool{true, false} {
		dbg := heatingDebugger(t, Active)
		if _, err := dbg.EnableCheckpointing(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := dbg.RunNs(20_000_000); err != nil {
			t.Fatal(err)
		}
		cp := foreign
		if own {
			if cp, err = dbg.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := dbg.RunNs(80_000_000); err != nil {
			t.Fatal(err)
		}
		if err := dbg.RestoreCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		cps := dbg.Recorder.Checkpoints()
		last := cps[len(cps)-1].Time
		runPlantInRange(t, dbg, 220_000_000)
		if last != 20_000_000 {
			t.Fatalf("own checkpoint %v: the last checkpoint after the restore at 20 ms is at %d ns", own, last)
		}
		want, wantCp := formatTrace(dbg), checkpointBytes(t, dbg)
		for _, from := range []uint64{10_000_000, 30_000_000} {
			replayTo(t, dbg, from, dbg.Now(), want, wantCp)
		}
	}
}

// runPlantInRange runs the heating debugger d one ms at a time to until,
// requiring heater.temp__io to stay inside the room's physical range: the
// room starts at ambient (15 °C) and settles at most Gain/Loss (10 °C)
// above it.
func runPlantInRange(t *testing.T, d *Debugger, until uint64) {
	t.Helper()
	board := d.Node("main")
	idx, ok := board.Prog.Symbols.Index("heater.temp__io")
	if !ok {
		t.Fatal("heater.temp__io symbol missing")
	}
	for d.Now() < until {
		if err := d.RunNs(1_000_000); err != nil {
			t.Fatal(err)
		}
		v, err := board.LoadSym(idx)
		if err != nil {
			t.Fatal(err)
		}
		if c := v.Float(); c < 14 || c > 26 {
			t.Fatalf("heater.temp__io reads %g at %d ns", c, d.Now())
		}
	}
}
