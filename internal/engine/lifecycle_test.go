package engine

import (
	"testing"

	"repro/internal/protocol"
)

// recordingRemote is a RemoteDebug fake that records every arm, disarm
// and step that would cross the wire — the breakpoint-lifecycle
// regression tests assert on exactly which instructions a Session emits.
type recordingRemote struct {
	sets   []string // breakpoint ids armed by InSetBreak
	clears []string // breakpoint ids disarmed by InClearBreak
	steps  int      // InStep instructions
}

func (r *recordingRemote) Send(in protocol.Instruction) error {
	switch in.Type {
	case protocol.InSetBreak:
		r.sets = append(r.sets, in.Source)
	case protocol.InClearBreak:
		r.clears = append(r.clears, in.Source)
	case protocol.InStep:
		r.steps++
	}
	return nil
}

// TestSetBreakpointValidatesBeforeArming: a breakpoint with a good
// TargetCond but a bad host-side Cond must fail WITHOUT arming the
// target-resident agent. The old order armed first and validated second,
// so the agent was left holding a live condition the session never
// recorded — it could halt the board with no host-side entry to clear.
func TestSetBreakpointValidatesBeforeArming(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, MinimalCOMDESMapping())
	s := NewSession(g, nil)
	rd := &recordingRemote{}
	s.UseRemote(rd)

	err := s.SetBreakpoint(Breakpoint{
		ID:         "bad-cond",
		Event:      protocol.EvStateEnter,
		TargetCond: "heater.ctrl.__state == 1",
		Cond:       "value >", // does not parse
	})
	if err == nil {
		t.Fatal("SetBreakpoint accepted an unparsable Cond")
	}
	if len(rd.sets) != 0 {
		t.Fatalf("agent was armed before validation failed: SetBreak calls %v", rd.sets)
	}
	if n := len(s.Breakpoints()); n != 0 {
		t.Fatalf("session recorded %d breakpoints after a failed install", n)
	}

	// Same validate-first contract for a missing event type on a
	// host-side-only breakpoint riding with a target condition but no
	// remote channel.
	s2 := NewSession(buildGDM(t, sys, MinimalCOMDESMapping()), nil)
	if err := s2.SetBreakpoint(Breakpoint{ID: "no-event", TargetCond: "heater.ctrl.__state == 1"}); err == nil {
		t.Fatal("SetBreakpoint accepted a no-event breakpoint without a remote channel")
	}
}

// TestSetBreakpointBadCondLeavesRealAgentClean runs the same scenario over
// the real wire: after the failed install, the board services its pending
// instructions and the target-resident agent must have nothing armed.
func TestSetBreakpointBadCondLeavesRealAgentClean(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, MinimalCOMDESMapping())
	b := activeBoard(t, sys)
	s := NewSession(g, b)
	s.AddSource(NewSerialSource(b.HostPort()))

	cond, err := StateCond(sys, "heater.ctrl", "Heating")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetBreakpoint(Breakpoint{
		ID: "leaky", Event: protocol.EvStateEnter, TargetCond: cond, Cond: "value >",
	}); err == nil {
		t.Fatal("SetBreakpoint accepted an unparsable Cond")
	}
	pump(t, s, b, 50_000_000, 1_000_000)
	if n := len(b.TargetBreaks()); n != 0 {
		t.Fatalf("target agent holds %d armed breakpoints after a failed install", n)
	}
	if s.Paused() || b.Halted() {
		t.Fatal("board halted on a breakpoint the session never recorded")
	}
}

// TestBreakpointsReturnsCopy: mutating the slice Breakpoints() returns
// must not reorder, truncate or corrupt the session's own matching list.
func TestBreakpointsReturnsCopy(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, MinimalCOMDESMapping())
	s := NewSession(g, nil)
	for _, id := range []string{"a", "b", "c"} {
		if err := s.SetBreakpoint(Breakpoint{ID: id, Event: protocol.EvSignal, Source: "sig-" + id}); err != nil {
			t.Fatal(err)
		}
	}

	got := s.Breakpoints()
	got[0], got[2] = got[2], got[0] // reorder
	got[1] = nil                    // overwrite
	_ = got[:0]                     // truncate

	// The session's own list must still match in install order.
	live := s.Breakpoints()
	for i, want := range []string{"a", "b", "c"} {
		if live[i] == nil || live[i].ID != want {
			t.Fatalf("session breakpoint[%d] = %v, want %s (external mutation leaked in)", i, live[i], want)
		}
	}
	ev := protocol.Event{Type: protocol.EvSignal, Source: "sig-b", Time: 1}
	if _, err := s.GDM.HandleEvent(ev); err != nil {
		t.Fatal(err)
	}
	if err := s.checkBreakpoints(ev, 1); err != nil {
		t.Fatal(err)
	}
	if live[1].Hits != 1 {
		t.Fatalf("breakpoint b hits = %d, want 1 — matching broke after external slice mutation", live[1].Hits)
	}
}

// TestClearBreakpointNilsVacatedSlot: the splice in ClearBreakpoint must
// not leave a dangling *Breakpoint in the backing array (white-box — the
// dangling pointer kept the cleared breakpoint reachable and a later
// append could resurrect it into a re-sliced view).
func TestClearBreakpointNilsVacatedSlot(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, MinimalCOMDESMapping())
	s := NewSession(g, nil)
	for _, id := range []string{"a", "b", "c"} {
		if err := s.SetBreakpoint(Breakpoint{ID: id, Event: protocol.EvSignal}); err != nil {
			t.Fatal(err)
		}
	}
	backing := s.breaks // shares the backing array with the live list
	if err := s.ClearBreakpoint("b"); err != nil {
		t.Fatal(err)
	}
	if len(s.breaks) != 2 || s.breaks[0].ID != "a" || s.breaks[1].ID != "c" {
		t.Fatalf("breaks after clear = %v", s.breaks)
	}
	if backing[2] != nil {
		t.Fatalf("vacated tail slot still holds %q — dangling pointer left in the backing array", backing[2].ID)
	}
}
