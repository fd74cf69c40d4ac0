package engine

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/jtag"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/internal/value"
)

// heaterSystem is the shared thermostat fixture (same shape as in the
// target tests).
func heaterSystem(t testing.TB) *comdes.System {
	fb, err := comdes.NewStateMachineFB(comdes.SMConfig{
		Name:    "ctrl",
		Inputs:  []comdes.Port{{Name: "temp", Kind: value.Float}},
		Outputs: []comdes.Port{{Name: "heat", Kind: value.Bool}, {Name: "power", Kind: value.Float}},
		Initial: "Idle",
		States: []comdes.SMStateDef{
			{Name: "Idle", Entry: map[string]string{"heat": "false", "power": "0"}},
			{Name: "Heating", Entry: map[string]string{"heat": "true", "power": "100"}},
		},
		Transitions: []comdes.SMTransitionDef{
			{Name: "cold", From: "Idle", To: "Heating", Guard: "temp < 19"},
			{Name: "warm", From: "Heating", To: "Idle", Guard: "temp > 21"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := comdes.NewNetwork("ctrlnet",
		[]comdes.Port{{Name: "temp", Kind: value.Float}},
		[]comdes.Port{{Name: "heat", Kind: value.Bool}, {Name: "power", Kind: value.Float}})
	net.MustAdd(fb)
	net.MustConnect("", "temp", "ctrl", "temp").
		MustConnect("ctrl", "heat", "", "heat").
		MustConnect("ctrl", "power", "", "power")
	a, err := comdes.NewActor("heater", net, comdes.TaskSpec{PeriodNs: 1_000_000, DeadlineNs: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	sys := comdes.NewSystem("heating")
	sys.MustAddActor(a)
	return sys
}

// buildGDM abstracts the heater model with the default COMDES mapping and
// binds the default command table.
func buildGDM(t testing.TB, sys *comdes.System, mapping *core.Mapping) *core.GDM {
	t.Helper()
	meta := comdes.Metamodel()
	model, err := comdes.ToModel(sys, meta)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Abstract(model, mapping)
	if err != nil {
		t.Fatal(err)
	}
	if err := BindCOMDES(g); err != nil {
		t.Fatal(err)
	}
	return g
}

// activeBoard compiles with full instrumentation and attaches a thermal
// environment.
func activeBoard(t testing.TB, sys *comdes.System) *target.Board {
	t.Helper()
	prog, err := codegen.Compile(sys, codegen.Options{
		Instrument: codegen.Instrument{StateEnter: true, Transitions: true, Signals: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := target.NewBoard("main", prog, target.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	temp := 15.0
	b.PreLatch = func(now uint64, actor string) {
		if p, err := b.ReadOutput("heater", "power"); err == nil && p.Float() > 0 {
			temp += 1.5
		} else {
			temp -= 1.0
		}
		_ = b.WriteInput("heater", "temp", value.F(temp))
	}
	return b
}

func pump(t testing.TB, s *Session, b *target.Board, until, slice uint64) {
	t.Helper()
	for b.Now() < until {
		if !s.Paused() {
			b.RunFor(slice)
		} else {
			// Target frozen: only the line drains (already-sent frames).
			b.Link.Advance(b.Now())
		}
		if _, err := s.ProcessEvents(b.Now()); err != nil {
			t.Fatal(err)
		}
		if s.Paused() {
			return
		}
	}
}

func TestActiveSessionAnimation(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, MinimalCOMDESMapping())
	b := activeBoard(t, sys)
	s := NewSession(g, b)
	s.AddSource(NewSerialSource(b.HostPort()))

	var reacted []string
	s.OnReaction = func(ev protocol.Event, rs []core.Reaction) {
		for _, r := range rs {
			reacted = append(reacted, r.Element)
		}
	}
	pump(t, s, b, 100_000_000, 1_000_000)
	if s.Handled == 0 {
		t.Fatal("no events handled")
	}
	// The limit cycle must have highlighted both states at some point.
	joined := strings.Join(reacted, ",")
	if !strings.Contains(joined, "state:heater.ctrl.Heating") || !strings.Contains(joined, "state:heater.ctrl.Idle") {
		t.Errorf("animation incomplete: %s", joined)
	}
	// Exactly one state highlighted at the end (exclusive highlight).
	hl := g.HighlightedElements()
	states := 0
	for _, id := range hl {
		if strings.HasPrefix(id, "state:") {
			states++
		}
	}
	if states != 1 {
		t.Errorf("highlighted states = %d (%v)", states, hl)
	}
	// Trace captured and produces a timing diagram.
	if s.Trace.Len() == 0 {
		t.Fatal("trace empty")
	}
	art := s.TimingDiagram().ASCII(70)
	if !strings.Contains(art, "heater.ctrl") {
		t.Errorf("diagram missing track:\n%s", art)
	}
}

func TestModelLevelBreakpoint(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, MinimalCOMDESMapping())
	b := activeBoard(t, sys)
	s := NewSession(g, b)
	s.AddSource(NewSerialSource(b.HostPort()))
	if err := s.SetBreakpoint(Breakpoint{
		ID: "bp-heating", Event: protocol.EvStateEnter, Source: "heater.ctrl", Arg1: "Heating",
	}); err != nil {
		t.Fatal(err)
	}
	pump(t, s, b, 200_000_000, 1_000_000)
	if !s.Paused() {
		t.Fatal("breakpoint did not pause the session")
	}
	if !b.Halted() {
		t.Fatal("target not halted")
	}
	if s.LastBreak == nil || s.LastBreak.ID != "bp-heating" || s.LastBreak.Hits != 1 {
		t.Fatalf("LastBreak = %+v", s.LastBreak)
	}
	if g.State() != core.Halted {
		t.Error("GDM not halted")
	}
	// The trace records the hit.
	hits := s.Trace.OfType(protocol.EvBreakHit)
	if hits.Len() != 1 || hits.At(0).Event.Source != "bp-heating" {
		t.Errorf("break trace = %+v", hits.Slice(0, hits.Len()))
	}
	// Continue resumes execution.
	frozen := b.Cycles()
	s.Continue()
	pump(t, s, b, b.Now()+20_000_000, 1_000_000)
	if b.Cycles() <= frozen {
		t.Error("continue did not resume the target")
	}
}

func TestConditionalBreakpoint(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, DefaultCOMDESMapping())
	b := activeBoard(t, sys)
	s := NewSession(g, b)
	s.AddSource(NewSerialSource(b.HostPort()))
	if err := s.SetBreakpoint(Breakpoint{
		ID: "bp-power", Event: protocol.EvSignal, Source: "heater.power", Cond: "value > 90",
	}); err != nil {
		t.Fatal(err)
	}
	pump(t, s, b, 300_000_000, 1_000_000)
	if !s.Paused() || s.LastBreak == nil || s.LastBreak.ID != "bp-power" {
		t.Fatal("conditional breakpoint did not hit")
	}
	// The power signal that tripped it is badged on the port element.
	badge := g.Scene().Get("port:net.heater.out.power").Badge
	if badge != "100" {
		t.Errorf("badge = %q, want 100", badge)
	}
}

func TestStepMode(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, MinimalCOMDESMapping())
	b := activeBoard(t, sys)
	s := NewSession(g, b)
	s.AddSource(NewSerialSource(b.HostPort()))
	s.Step()
	pump(t, s, b, 400_000_000, 1_000_000)
	if !s.Paused() {
		t.Fatal("step did not pause after an event")
	}
	afterFirst := s.Handled
	if afterFirst == 0 {
		t.Fatal("step handled nothing")
	}
	// Next step handles at least one more event.
	s.Step()
	pump(t, s, b, b.Now()+400_000_000, 1_000_000)
	if s.Handled <= afterFirst {
		t.Error("second step made no progress")
	}
}

func TestBreakpointManagement(t *testing.T) {
	s := NewSession(core.NewGDM("x"), nil)
	if err := s.SetBreakpoint(Breakpoint{}); err == nil {
		t.Error("empty breakpoint should fail")
	}
	if err := s.SetBreakpoint(Breakpoint{ID: "b"}); err == nil {
		t.Error("breakpoint without event should fail")
	}
	if err := s.SetBreakpoint(Breakpoint{ID: "b", Event: protocol.EvSignal, Cond: "1 +"}); err == nil {
		t.Error("bad condition should fail")
	}
	if err := s.SetBreakpoint(Breakpoint{ID: "b", Event: protocol.EvSignal}); err != nil {
		t.Fatal(err)
	}
	// Replacement keeps a single instance.
	if err := s.SetBreakpoint(Breakpoint{ID: "b", Event: protocol.EvStateEnter}); err != nil {
		t.Fatal(err)
	}
	if len(s.Breakpoints()) != 1 || s.Breakpoints()[0].Event != protocol.EvStateEnter {
		t.Error("replacement failed")
	}
	if err := s.ClearBreakpoint("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.ClearBreakpoint("b"); err == nil {
		t.Error("double clear should fail")
	}
}

func TestOneShotBreakpoint(t *testing.T) {
	g := core.NewGDM("x")
	if err := g.BuildScene(); err != nil {
		t.Fatal(err)
	}
	s := NewSession(g, nil)
	src := &fakeSource{}
	s.AddSource(src)
	if err := s.SetBreakpoint(Breakpoint{ID: "once", Event: protocol.EvSignal, OneShot: true}); err != nil {
		t.Fatal(err)
	}
	src.events = []protocol.Event{{Type: protocol.EvSignal, Source: "s"}}
	if _, err := s.ProcessEvents(0); err != nil {
		t.Fatal(err)
	}
	if !s.Paused() || s.Breakpoints()[0].Enabled {
		t.Fatal("one-shot did not hit/disable")
	}
	s.Continue()
	src.events = []protocol.Event{{Type: protocol.EvSignal, Source: "s"}}
	if _, err := s.ProcessEvents(1); err != nil {
		t.Fatal(err)
	}
	if s.Paused() {
		t.Error("disabled one-shot hit again")
	}
}

type fakeSource struct{ events []protocol.Event }

func (f *fakeSource) Poll(uint64) []protocol.Event {
	evs := f.events
	f.events = nil
	return evs
}

// TestPassiveJTAGSession drives the same GDM purely from JTAG watches on a
// clean (uninstrumented) binary: no code modification, zero target
// overhead, same animation.
func TestPassiveJTAGSession(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, MinimalCOMDESMapping())
	prog, err := codegen.Compile(sys, codegen.Options{}) // clean build
	if err != nil {
		t.Fatal(err)
	}
	b, err := target.NewBoard("main", prog, target.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	temp := 15.0
	b.PreLatch = func(now uint64, actor string) {
		if p, err := b.ReadOutput("heater", "power"); err == nil && p.Float() > 0 {
			temp += 1.5
		} else {
			temp -= 1.0
		}
		_ = b.WriteInput("heater", "temp", value.F(temp))
	}
	probe := jtag.NewProbe(b.TAP)
	probe.Reset()
	w := jtag.NewWatcher(probe)
	if err := AutoWatches(w, prog); err != nil {
		t.Fatal(err)
	}
	if len(w.Watches()) == 0 {
		t.Fatal("no watches derived")
	}
	s := NewSession(g, b)
	s.AddSource(&WatcherSource{Watcher: w})
	s.Translate = WatchTranslator(sys)

	var entered []string
	s.OnReaction = func(ev protocol.Event, rs []core.Reaction) {
		if ev.Type == protocol.EvStateEnter {
			entered = append(entered, ev.Arg1)
		}
	}
	for i := 0; i < 100; i++ {
		b.RunFor(1_000_000)
		if _, err := s.ProcessEvents(b.Now()); err != nil {
			t.Fatal(err)
		}
	}
	joined := strings.Join(entered, ",")
	if !strings.Contains(joined, "Heating") || !strings.Contains(joined, "Idle") {
		t.Errorf("passive animation incomplete: %s", joined)
	}
	if b.InstrumentationCycles() != 0 {
		t.Error("passive session must not add instrumentation cycles")
	}
	// The state-enter events drove exclusive highlighting, same as active.
	hl := g.HighlightedElements()
	if len(hl) != 1 || !strings.HasPrefix(hl[0], "state:") {
		t.Errorf("highlights = %v", hl)
	}
}

// TestReplaySession replays a recorded trace into a fresh GDM and expects
// the identical reaction sequence (E8 fidelity).
func TestReplaySession(t *testing.T) {
	sys := heaterSystem(t)
	g1 := buildGDM(t, sys, MinimalCOMDESMapping())
	b := activeBoard(t, sys)
	s1 := NewSession(g1, b)
	s1.AddSource(NewSerialSource(b.HostPort()))
	var live []string
	s1.OnReaction = func(ev protocol.Event, rs []core.Reaction) {
		for _, r := range rs {
			live = append(live, r.Binding+":"+r.Element)
		}
	}
	pump(t, s1, b, 100_000_000, 1_000_000)
	if s1.Trace.Len() == 0 {
		t.Fatal("nothing recorded")
	}

	g2 := buildGDM(t, sys, MinimalCOMDESMapping())
	s2 := NewSession(g2, nil)
	rep := trace.NewReplayer(s1.Trace, 0)
	s2.AddSource(rep)
	var replayed []string
	s2.OnReaction = func(ev protocol.Event, rs []core.Reaction) {
		for _, r := range rs {
			replayed = append(replayed, r.Binding+":"+r.Element)
		}
	}
	if _, err := s2.ProcessEvents(0); err != nil {
		t.Fatal(err)
	}
	if strings.Join(live, "|") != strings.Join(replayed, "|") {
		t.Errorf("replay diverged:\nlive:   %v\nreplay: %v", live, replayed)
	}
	// Final scene highlight state identical.
	if strings.Join(g1.HighlightedElements(), ",") != strings.Join(g2.HighlightedElements(), ",") {
		t.Error("replay final scene differs")
	}
}

func TestWatchTranslatorEdgeCases(t *testing.T) {
	sys := heaterSystem(t)
	tr := WatchTranslator(sys)
	// Non-watch events pass through untouched.
	ev := protocol.Event{Type: protocol.EvSignal, Source: "x"}
	if tr(ev) != ev {
		t.Error("non-watch event modified")
	}
	// Unknown watch source passes through.
	ev = protocol.Event{Type: protocol.EvWatch, Source: "mystery"}
	if tr(ev) != ev {
		t.Error("unknown watch modified")
	}
	// Out-of-range state index passes through.
	ev = protocol.Event{Type: protocol.EvWatch, Source: "heater.ctrl.__state", Value: 99}
	if tr(ev).Type != protocol.EvWatch {
		t.Error("out-of-range index should not translate")
	}
	// Valid state index translates.
	ev = protocol.Event{Type: protocol.EvWatch, Source: "heater.ctrl.__state", Value: 1, Time: 5}
	got := tr(ev)
	if got.Type != protocol.EvStateEnter || got.Source != "heater.ctrl" || got.Arg1 != "Heating" || got.Time != 5 {
		t.Errorf("translated = %+v", got)
	}
	// Published output translates to a signal.
	ev = protocol.Event{Type: protocol.EvWatch, Source: "heater.power__pub", Value: 100}
	got = tr(ev)
	if got.Type != protocol.EvSignal || got.Source != "heater.power" || got.Value != 100 {
		t.Errorf("signal translated = %+v", got)
	}
}

func TestNopTarget(t *testing.T) {
	var n NopTarget
	n.Halt()
	if !n.Halted() {
		t.Error("halt failed")
	}
	n.Resume()
	if n.Halted() {
		t.Error("resume failed")
	}
}

func TestDefaultMappingCoversDataflow(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, DefaultCOMDESMapping())
	by := g.ElementsByPattern()
	if by["Circle"] != 2 { // two states
		t.Errorf("circles = %d", by["Circle"])
	}
	if by["Arrow"] != 2 { // two transitions
		t.Errorf("arrows = %d", by["Arrow"])
	}
	if by["Rectangle"] == 0 || by["Triangle"] == 0 || by["Line"] == 0 {
		t.Errorf("dataflow view missing: %v", by)
	}
	if err := g.Conformance(); err != nil {
		t.Error(err)
	}
}

// TestRemoteInstructionPath drives the target over the wire: the engine
// sends a remote pause through the serial source, the firmware halts and
// acknowledges with EvHalted.
func TestRemoteInstructionPath(t *testing.T) {
	sys := heaterSystem(t)
	g := buildGDM(t, sys, MinimalCOMDESMapping())
	// Light instrumentation + fast line so control frames are not stuck
	// behind a saturated UART queue (that effect is measured by E7b).
	prog, err := codegen.Compile(sys, codegen.Options{
		Instrument: codegen.Instrument{StateEnter: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := target.NewBoard("main", prog, target.Config{Baud: 1_000_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	temp := 15.0
	b.PreLatch = func(now uint64, actor string) {
		if p, err := b.ReadOutput("heater", "power"); err == nil && p.Float() > 0 {
			temp += 1.5
		} else {
			temp -= 1.0
		}
		_ = b.WriteInput("heater", "temp", value.F(temp))
	}
	src := NewSerialSource(b.HostPort())
	s := NewSession(g, b)
	s.AddSource(src)

	b.RunFor(5_000_000)
	if err := src.Send(protocol.Instruction{Type: protocol.InPause, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Let the instruction cross the line and the firmware service it.
	for i := 0; i < 10 && !b.Halted(); i++ {
		b.RunFor(1_000_000)
	}
	if !b.Halted() {
		t.Fatal("remote pause never serviced")
	}
	// The ack arrives as a normal event through the session.
	var sawHalted bool
	s.OnReaction = nil
	for i := 0; i < 10 && !sawHalted; i++ {
		b.RunFor(1_000_000)
		if _, err := s.ProcessEvents(b.Now()); err != nil {
			t.Fatal(err)
		}
		for _, r := range s.Trace.OfType(protocol.EvHalted).Records {
			_ = r
			sawHalted = true
		}
	}
	if !sawHalted {
		t.Error("EvHalted ack not received")
	}
	if err := src.Send(protocol.Instruction{Type: protocol.InResume, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && b.Halted(); i++ {
		b.RunFor(1_000_000)
	}
	if b.Halted() {
		t.Error("remote resume never serviced")
	}
}
