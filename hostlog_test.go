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
	board := dbg.Node("main")
	idx, ok := board.Prog.Symbols.Index("heater.temp__io")
	if !ok {
		t.Fatal("heater.temp__io symbol missing")
	}
	dbg.Session.Continue()
	if dbg.Recorder.Replaying() {
		t.Fatal("continue below the frontier must fork the timeline")
	}
	// The room starts at ambient (15 °C) and settles at most Gain/Loss
	// (10 °C) above it.
	for dbg.Now() < 200_000_000 {
		if err := dbg.RunNs(1_000_000); err != nil {
			t.Fatal(err)
		}
		v, err := board.LoadSym(idx)
		if err != nil {
			t.Fatal(err)
		}
		if c := v.Float(); c < 14 || c > 26 {
			t.Fatalf("heater.temp__io reads %g at %d ns after the fork at 22 ms", c, dbg.Now())
		}
	}
	replayTo(t, dbg, 30_000_000, 200_000_000, formatTrace(dbg), checkpointBytes(t, dbg))
}
