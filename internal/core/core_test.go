package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/metamodel"
	"repro/internal/protocol"
	"repro/internal/value"
)

// fsmMeta/fsmModel build a small state-machine language and a two-state
// instance — the minimal GMDF input.
func fsmMeta(t testing.TB) *metamodel.Metamodel {
	m := metamodel.NewMetamodel("fsm", "urn:test:fsm")
	m.MustClass("Element", true, "").Attr("name", value.String)
	m.MustClass("State", false, "Element").Attr("initial", value.Bool)
	m.MustClass("Transition", false, "Element").
		RefTo("from", "State", 1, 1).
		RefTo("to", "State", 1, 1).
		Attr("guard", value.String)
	m.MustClass("Machine", false, "Element").
		Contain("states", "State").
		Contain("transitions", "Transition")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func fsmModel(t testing.TB, meta *metamodel.Metamodel) *metamodel.Model {
	mod := metamodel.NewModel(meta)
	mach := mod.MustObject("Machine", "m1").MustSet("name", value.S("Light"))
	off := mod.MustObject("State", "state:m1.Off").MustSet("name", value.S("Off")).MustSet("initial", value.B(true))
	on := mod.MustObject("State", "state:m1.On").MustSet("name", value.S("On"))
	tr := mod.MustObject("Transition", "trans:m1.go").MustSet("name", value.S("go"))
	tr.MustAppend("from", off).MustAppend("to", on)
	back := mod.MustObject("Transition", "trans:m1.back").MustSet("name", value.S("back"))
	back.MustAppend("from", on).MustAppend("to", off)
	mach.MustAppend("states", off).MustAppend("states", on).
		MustAppend("transitions", tr).MustAppend("transitions", back)
	if err := mod.AddRoot(mach); err != nil {
		t.Fatal(err)
	}
	return mod
}

func fsmMapping(t testing.TB) *Mapping {
	m := NewMapping()
	m.MustPair(Rule{MetaClass: "State", Pattern: "Rectangle"})
	m.MustPair(Rule{MetaClass: "Transition", Pattern: "Arrow", Resolve: ResolveRefs("from", "to")})
	return m
}

func abstractFSM(t testing.TB) *GDM {
	g, err := Abstract(fsmModel(t, fsmMeta(t)), fsmMapping(t))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMappingPairing(t *testing.T) {
	m := NewMapping()
	if err := m.Pair(Rule{MetaClass: "State", Pattern: "Hexagon"}); err == nil {
		t.Error("unknown pattern should fail")
	}
	if err := m.Pair(Rule{MetaClass: "", Pattern: "Rectangle"}); err == nil {
		t.Error("empty class should fail")
	}
	if err := m.Pair(Rule{MetaClass: "T", Pattern: "Arrow"}); err == nil {
		t.Error("connector without resolver should fail")
	}
	if err := m.Pair(Rule{MetaClass: "State", Pattern: "Rectangle"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Pair(Rule{MetaClass: "State", Pattern: "Circle"}); err == nil {
		t.Error("duplicate pairing should fail")
	}
	if m.Len() != 1 {
		t.Error("Len wrong")
	}
}

func TestMappingMatchSpecificity(t *testing.T) {
	meta := fsmMeta(t)
	mod := metamodel.NewModel(meta)
	s := mod.MustObject("State", "s")
	m := NewMapping()
	m.MustPair(Rule{MetaClass: "Element", Pattern: "Circle"})
	m.MustPair(Rule{MetaClass: "State", Pattern: "Rectangle"})
	r, ok := m.Match(s)
	if !ok || r.Pattern != "Rectangle" {
		t.Errorf("exact match should win: %+v", r)
	}
	tr := mod.MustObject("Transition", "t")
	r, ok = m.Match(tr)
	if !ok || r.Pattern != "Circle" {
		t.Errorf("superclass match expected: %+v", r)
	}
}

func TestAbstractProducesGDM(t *testing.T) {
	g := abstractFSM(t)
	if g.Name != "Light" {
		t.Errorf("GDM name = %q", g.Name)
	}
	// 2 states + 2 transitions; the machine itself is unmapped.
	if len(g.Elements()) != 4 {
		t.Fatalf("elements = %d", len(g.Elements()))
	}
	off := g.Element("state:m1.Off")
	if off == nil || off.Pattern != "Rectangle" || off.Label != "Off" || !off.Initial {
		t.Fatalf("off element = %+v", off)
	}
	if off.Group != "m1" {
		t.Errorf("group = %q, want m1", off.Group)
	}
	tr := g.Element("trans:m1.go")
	if tr == nil || tr.From != "state:m1.Off" || tr.To != "state:m1.On" {
		t.Fatalf("transition element = %+v", tr)
	}
	if err := g.Conformance(); err != nil {
		t.Error(err)
	}
	// Scene rendered with the initial state highlighted.
	if hl := g.HighlightedElements(); len(hl) != 1 || hl[0] != "state:m1.Off" {
		t.Errorf("initial highlights = %v", hl)
	}
	svg := g.Scene().SVG()
	if !strings.Contains(svg, "Off") || !strings.Contains(svg, "marker-end") {
		t.Error("SVG incomplete")
	}
	by := g.ElementsByPattern()
	if by["Rectangle"] != 2 || by["Arrow"] != 2 {
		t.Errorf("pattern counts = %v", by)
	}
	if ids := g.SortedIDs(); len(ids) != 4 || ids[0] > ids[1] {
		t.Errorf("SortedIDs = %v", ids)
	}
}

func TestAbstractionTotality(t *testing.T) {
	// Every mapped model element yields exactly one GDM element;
	// unmapped elements yield none (the E-index invariant).
	model := fsmModel(t, fsmMeta(t))
	g := abstractFSM(t)
	mapped := 0
	model.Walk(func(o *metamodel.Object) {
		if o.Class().Name == "State" || o.Class().Name == "Transition" {
			mapped++
			if g.Element(o.ID()) == nil {
				t.Errorf("mapped object %s has no element", o.ID())
			}
		} else if g.Element(o.ID()) != nil {
			t.Errorf("unmapped object %s has an element", o.ID())
		}
	})
	if mapped != len(g.Elements()) {
		t.Errorf("element count %d != mapped %d", len(g.Elements()), mapped)
	}
}

func TestAbstractErrors(t *testing.T) {
	meta := fsmMeta(t)
	model := fsmModel(t, meta)
	if _, err := Abstract(model, NewMapping()); err == nil {
		t.Error("empty mapping should fail")
	}
	// Mapping transitions without states: dangling connector endpoints.
	m := NewMapping()
	m.MustPair(Rule{MetaClass: "Transition", Pattern: "Arrow", Resolve: ResolveRefs("from", "to")})
	if _, err := Abstract(model, m); err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Errorf("dangling connector: %v", err)
	}
	// Mapping that matches nothing.
	m2 := NewMapping()
	m2.MustPair(Rule{MetaClass: "Machine", Pattern: "Rectangle"})
	mod2 := metamodel.NewModel(meta)
	st := mod2.MustObject("State", "solo")
	if err := mod2.AddRoot(st); err != nil {
		t.Fatal(err)
	}
	if _, err := Abstract(mod2, m2); err == nil {
		t.Error("no-match abstraction should fail")
	}
	// Bad endpoint resolver.
	m3 := NewMapping()
	m3.MustPair(Rule{MetaClass: "State", Pattern: "Rectangle"})
	m3.MustPair(Rule{MetaClass: "Transition", Pattern: "Arrow", Resolve: ResolveRefs("ghost", "to")})
	if _, err := Abstract(model, m3); err == nil {
		t.Error("bad resolver should fail")
	}
}

func TestGDMEventHandling(t *testing.T) {
	g := abstractFSM(t)
	if err := g.Bind(Binding{
		Name: "enter", Event: protocol.EvStateEnter,
		KeyTemplate: "state:$source.$arg1", Reaction: ReactHighlightExclusive,
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Bind(Binding{
		Name: "fired", Event: protocol.EvTransition, ArrowMatch: true,
		FromKey: "state:$source.$arg1", ToKey: "state:$source.$arg2", Reaction: ReactPulse,
	}); err != nil {
		t.Fatal(err)
	}
	if g.State() != Waiting {
		t.Error("should start Waiting")
	}

	// StateEnter On: Off unhighlighted, On highlighted.
	rs, err := g.HandleEvent(protocol.Event{Type: protocol.EvStateEnter, Source: "m1", Arg1: "On"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Element != "state:m1.On" {
		t.Fatalf("reactions = %v", rs)
	}
	if hl := g.HighlightedElements(); len(hl) != 1 || hl[0] != "state:m1.On" {
		t.Errorf("highlights = %v", hl)
	}

	// Transition event pulses the matching arrow.
	rs, err = g.HandleEvent(protocol.Event{Type: protocol.EvTransition, Source: "m1", Arg1: "On", Arg2: "Off"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Element != "trans:m1.back" {
		t.Fatalf("arrow reactions = %v", rs)
	}
	// The next pulse in the group clears the previous one.
	if _, err := g.HandleEvent(protocol.Event{Type: protocol.EvTransition, Source: "m1", Arg1: "Off", Arg2: "On"}); err != nil {
		t.Fatal(err)
	}
	hl := g.HighlightedElements()
	for _, id := range hl {
		if id == "trans:m1.back" {
			t.Error("previous pulse not cleared")
		}
	}

	// Unbound events counted, not fatal.
	before := g.Unbound
	if _, err := g.HandleEvent(protocol.Event{Type: protocol.EvSignal, Source: "zzz"}); err != nil {
		t.Fatal(err)
	}
	if g.Unbound != before+1 {
		t.Error("unbound not counted")
	}
	if g.Commands != 4 {
		t.Errorf("commands = %d", g.Commands)
	}
}

func TestGDMBindingValidation(t *testing.T) {
	g := NewGDM("x")
	if err := g.Bind(Binding{Name: "b", Reaction: ReactHighlight, KeyTemplate: "k"}); err == nil {
		t.Error("missing event should fail")
	}
	if err := g.Bind(Binding{Name: "b", Event: protocol.EvSignal, KeyTemplate: "k"}); err == nil {
		t.Error("missing reaction should fail")
	}
	if err := g.Bind(Binding{Name: "b", Event: protocol.EvSignal, Reaction: ReactBadge}); err == nil {
		t.Error("missing key template should fail")
	}
}

func TestGDMSourceFilterAndBadge(t *testing.T) {
	g := abstractFSM(t)
	if err := g.Bind(Binding{
		Name: "only-m1", Event: protocol.EvSignal, SourceEq: "m1.out",
		KeyTemplate: "state:$sourceHead.On", Reaction: ReactBadge,
	}); err != nil {
		t.Fatal(err)
	}
	// Mismatched source: filtered.
	if _, err := g.HandleEvent(protocol.Event{Type: protocol.EvSignal, Source: "m2.out", Value: 5}); err != nil {
		t.Fatal(err)
	}
	if g.Reactions != 0 {
		t.Error("source filter failed")
	}
	// Matching source: badge applied with numeric value.
	if _, err := g.HandleEvent(protocol.Event{Type: protocol.EvSignal, Source: "m1.out", Value: 5.5}); err != nil {
		t.Fatal(err)
	}
	if g.Scene().Get("state:m1.On").Badge != "5.5" {
		t.Errorf("badge = %q", g.Scene().Get("state:m1.On").Badge)
	}
	// Arg2 takes precedence over Value.
	if _, err := g.HandleEvent(protocol.Event{Type: protocol.EvSignal, Source: "m1.out", Arg2: "hot"}); err != nil {
		t.Fatal(err)
	}
	if g.Scene().Get("state:m1.On").Badge != "hot" {
		t.Errorf("badge = %q", g.Scene().Get("state:m1.On").Badge)
	}
}

func TestGDMStateMachineStates(t *testing.T) {
	g := abstractFSM(t)
	if g.State() != Waiting || g.State().String() != "Waiting" {
		t.Error("initial state wrong")
	}
	g.SetHalted(true)
	if g.State() != Halted {
		t.Error("halt failed")
	}
	g.SetHalted(false)
	if g.State() != Waiting {
		t.Error("resume failed")
	}
	if Reacting.String() != "Reacting" || Halted.String() != "Halted" {
		t.Error("state names wrong")
	}
	if !strings.Contains(State(9).String(), "9") {
		t.Error("unknown state name")
	}
	for _, r := range []ReactionKind{ReactNone, ReactHighlight, ReactHighlightExclusive, ReactBadge, ReactPulse} {
		if r.String() == "" {
			t.Error("reaction name empty")
		}
	}
}

func TestGDMPersistenceRoundtrip(t *testing.T) {
	g := abstractFSM(t)
	if err := g.Bind(Binding{
		Name: "enter", Event: protocol.EvStateEnter,
		KeyTemplate: "state:$source.$arg1", Reaction: ReactHighlightExclusive,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGDM(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name != g.Name || len(g2.Elements()) != len(g.Elements()) || len(g2.Bindings()) != 1 {
		t.Fatal("roundtrip lost structure")
	}
	// The reloaded GDM reacts identically.
	ev := protocol.Event{Type: protocol.EvStateEnter, Source: "m1", Arg1: "On"}
	r1, err1 := g.HandleEvent(ev)
	r2, err2 := g2.HandleEvent(ev)
	if err1 != nil || err2 != nil || len(r1) != len(r2) || r1[0] != r2[0] {
		t.Errorf("reloaded GDM diverges: %v/%v %v/%v", r1, err1, r2, err2)
	}
	if _, err := LoadGDM([]byte("{")); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestHandleEventWithoutScene(t *testing.T) {
	g := NewGDM("x")
	if _, err := g.HandleEvent(protocol.Event{Type: protocol.EvHello}); err == nil {
		t.Error("no-scene handling should fail")
	}
}

func TestExpandTemplates(t *testing.T) {
	ev := protocol.Event{Source: "heater.power", Arg1: "A", Arg2: "B"}
	cases := map[string]string{
		"state:$source.$arg1":                  "state:heater.power.A",
		"port:net.$sourceHead.out.$sourceTail": "port:net.heater.out.power",
		"$arg2":                                "B",
		"plain":                                "plain",
		"$unknown":                             "$unknown",
	}
	for tmpl, want := range cases {
		if got := expand(tmpl, ev); got != want {
			t.Errorf("expand(%q) = %q, want %q", tmpl, got, want)
		}
	}
	// Undotted source: head == tail == source.
	ev2 := protocol.Event{Source: "solo"}
	if expand("$sourceHead/$sourceTail", ev2) != "solo/solo" {
		t.Error("undotted expansion wrong")
	}
}

func TestGuideView(t *testing.T) {
	meta := fsmMeta(t)
	m := fsmMapping(t)
	view := GuideView(meta, m)
	for _, want := range []string{"State", "Transition", "State -> Rectangle", "( ) Circle", "ABSTRACTION FINISHED"} {
		if !strings.Contains(view, want) {
			t.Errorf("guide view missing %q:\n%s", want, view)
		}
	}
}

func TestConformanceCatchesCorruption(t *testing.T) {
	g := abstractFSM(t)
	g.Element("state:m1.On").Pattern = "Blob"
	if err := g.Conformance(); err == nil {
		t.Error("bad pattern should fail conformance")
	}
	g2 := abstractFSM(t)
	g2.Element("trans:m1.go").To = "ghost"
	if err := g2.Conformance(); err == nil {
		t.Error("dangling connector should fail conformance")
	}
}

// TestFormatBadgeMatchesPrintf: numeric badges keep the exact text fmt's
// %g verb gave them, signed zero, exponents, NaN and infinities included,
// on both sides of the integer fast path's bounds.
func TestFormatBadgeMatchesPrintf(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e21, 1e-7, math.NaN(), math.Inf(1), math.Inf(-1),
		1.5, -273.15, 123456789, 1e6 - 1, 1e6, -1e6 + 1, -1e6, 1e6 - 0.5, 99, 100, -100, 1e15, 1 << 62, 1 << 63, -(1 << 63), 0.1}
	for i := -1_050_000; i <= 1_050_000; i += 997 {
		vals = append(vals, float64(i), float64(i)+0.25)
	}
	for _, v := range vals {
		if got, want := formatBadge(v), fmt.Sprintf("%g", v); got != want {
			t.Errorf("formatBadge(%v) = %q, %%g gives %q", v, got, want)
		}
	}
}

// fsmBound is abstractFSM with the COMDES-style state and transition
// bindings.
func fsmBound(t testing.TB) *GDM {
	g := abstractFSM(t)
	for _, b := range []Binding{
		{Name: "enter", Event: protocol.EvStateEnter, KeyTemplate: "state:$source.$arg1", Reaction: ReactHighlightExclusive},
		{Name: "fired", Event: protocol.EvTransition, ArrowMatch: true, FromKey: "state:$source.$arg1", ToKey: "state:$source.$arg2", Reaction: ReactPulse},
		{Name: "badge", Event: protocol.EvSignal, KeyTemplate: "state:$sourceHead.On", Reaction: ReactBadge},
	} {
		if err := g.Bind(b); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestHandleEventSteadyStateAllocs: once the dispatch table has seen an
// event's key, handling it again allocates nothing — no key string, no
// reaction slice.
func TestHandleEventSteadyStateAllocs(t *testing.T) {
	g := fsmBound(t)
	evs := []protocol.Event{
		{Type: protocol.EvStateEnter, Source: "m1", Arg1: "On"},
		{Type: protocol.EvTransition, Source: "m1", Arg1: "On", Arg2: "Off"},
		{Type: protocol.EvStateEnter, Source: "m1", Arg1: "Off"},
		{Type: protocol.EvTransition, Source: "m1", Arg1: "Off", Arg2: "On"},
		{Type: protocol.EvSignal, Source: "m1.out", Arg2: "hot"},
		{Type: protocol.EvHello, Source: "unbound"},
	}
	run := func() {
		for _, ev := range evs {
			if _, err := g.HandleEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warm HandleEvent: %v allocs per %d events, want 0", allocs, len(evs))
	}
	if g.Reactions != 102*5 || g.Unbound != 102 { // the first run, AllocsPerRun's warm-up and 100 runs
		t.Fatalf("reactions %d, unbound %d", g.Reactions, g.Unbound)
	}
}

// TestDispatchTableBound: a stream with more distinct event keys than the
// table holds still reacts to every event, and the table never grows past
// its bound. Dropping the table on Bind, AddElement and BuildScene makes
// the next event see the change.
func TestDispatchTableBound(t *testing.T) {
	g := fsmBound(t)
	for i := range maxRoutes * 3 / 2 {
		rs, err := g.HandleEvent(protocol.Event{Type: protocol.EvSignal, Source: fmt.Sprintf("m1.s%d", i)})
		if err != nil || len(rs) != 1 {
			t.Fatalf("event %d: %v, %v", i, rs, err)
		}
		if n := len(g.table.routes); n > maxRoutes {
			t.Fatalf("dispatch table holds %d keys, bound %d", n, maxRoutes)
		}
	}

	on := protocol.Event{Type: protocol.EvStateEnter, Source: "m1", Arg1: "On"}
	dim := protocol.Event{Type: protocol.EvStateEnter, Source: "m1", Arg1: "Dim"}
	if rs, _ := g.HandleEvent(dim); len(rs) != 0 {
		t.Fatalf("unknown state reacted: %v", rs)
	}
	if err := g.AddElement(&Element{ID: "state:m1.Dim", Pattern: "Rectangle", Group: g.Element("state:m1.On").Group}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.HandleEvent(dim); err == nil || !strings.Contains(err.Error(), `no shape "state:m1.Dim"`) {
		t.Fatalf("element without a shape: %v", err)
	}
	if _, err := g.HandleEvent(on); err == nil || !strings.Contains(err.Error(), `no shape "state:m1.Dim"`) {
		t.Fatalf("exclusive highlight over a sibling without a shape: %v", err)
	}
	if err := g.BuildScene(); err != nil {
		t.Fatal(err)
	}
	if rs, err := g.HandleEvent(dim); err != nil || len(rs) != 1 {
		t.Fatalf("after BuildScene: %v, %v", rs, err)
	}
	if err := g.Bind(Binding{Name: "also", Event: protocol.EvStateEnter, KeyTemplate: "state:m1.On", Reaction: ReactHighlight}); err != nil {
		t.Fatal(err)
	}
	if rs, err := g.HandleEvent(dim); err != nil || len(rs) != 2 || rs[1].Binding != "also" {
		t.Fatalf("after Bind: %v, %v", rs, err)
	}
}
