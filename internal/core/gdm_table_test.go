package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/models"
)

// The dispatch table against the reference resolver (ref_test.go): two
// GDMs built the same way, one driven through HandleEvent, one through
// RefHandleEvent, must agree after every step on the reactions, the
// error, the counters, the engine state, the pulse tracking and the
// rendered SVG and ASCII bytes.

// gdmSources are the systems the differential runs over: every built-in
// model and the DSL port of the heating plant.
func gdmSources() []string {
	return append(models.Names(), "heating.gmdf")
}

// loadSystem builds the named source's system.
func loadSystem(t testing.TB, name string) *comdes.System {
	t.Helper()
	if name == "heating.gmdf" {
		src, err := os.ReadFile("../../examples/dsl/heating.gmdf")
		if err != nil {
			t.Fatal(err)
		}
		sc, _, err := dsl.LoadSource(name, string(src))
		if err != nil {
			t.Fatal(err)
		}
		return sc.Sys
	}
	sys, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// extraBindings widen the COMDES table with the binding forms it lacks: a
// SourceEq filter (one on a template that does not read the source), a
// pulse on boxes, a second binding on one event, element ids taken
// verbatim from $arg1 and $arg2, and a reaction kind apply does not know.
func extraBindings(machine, state string) []core.Binding {
	return []core.Binding{
		{Name: "filtered-pulse", Event: protocol.EvStateEnter, SourceEq: machine, KeyTemplate: "state:$source.$arg1", Reaction: core.ReactPulse},
		{Name: "filtered-const", Event: protocol.EvTaskStart, SourceEq: machine, KeyTemplate: state, Reaction: core.ReactHighlight},
		{Name: "to-state", Event: protocol.EvTransition, KeyTemplate: "state:$source.$arg2", Reaction: core.ReactHighlight},
		{Name: "watch-badge", Event: protocol.EvWatch, KeyTemplate: "$arg1", Reaction: core.ReactBadge},
		{Name: "watch-exclusive", Event: protocol.EvWatch, KeyTemplate: "$arg2", Reaction: core.ReactHighlightExclusive},
		{Name: "bogus", Event: protocol.EvTaskDeadline, KeyTemplate: "$source", Reaction: core.ReactionKind(9)},
	}
}

// lateBindings are bound mid-stream by driveGDM, on events the table
// has already cached.
var lateBindings = []core.Binding{
	{Name: "late-badge", Event: protocol.EvStateEnter, KeyTemplate: "state:$source.$arg1", Reaction: core.ReactBadge},
	{Name: "late-arrow", Event: protocol.EvTransition, ArrowMatch: true, FromKey: "state:$source.$arg2", ToKey: "state:$source.$arg1", Reaction: core.ReactPulse},
	{Name: "late-head", Event: protocol.EvSignal, KeyTemplate: "$sourceHead", Reaction: core.ReactHighlight},
}

// vocab is the event vocabulary read off a GDM's elements.
type vocab struct {
	states   [][2]string // machine path, state name
	arrows   [][3]string // machine path, from state, to state
	signals  []string    // signal sources
	ids      []string    // every element id
	machines []string
}

func vocabOf(g *core.GDM) vocab {
	var v vocab
	seen := map[string]bool{}
	split := func(id string) (string, string, bool) {
		rest, ok := strings.CutPrefix(id, "state:")
		if !ok {
			return "", "", false
		}
		i := strings.LastIndexByte(rest, '.')
		if i < 0 {
			return "", "", false
		}
		return rest[:i], rest[i+1:], true
	}
	for _, el := range g.Elements() {
		v.ids = append(v.ids, el.ID)
		if path, name, ok := split(el.ID); ok {
			v.states = append(v.states, [2]string{path, name})
			if !seen[path] {
				seen[path] = true
				v.machines = append(v.machines, path)
			}
		}
		if core.IsConnector(el.Pattern) {
			p1, from, ok1 := split(el.From)
			p2, to, ok2 := split(el.To)
			if ok1 && ok2 && p1 == p2 {
				v.arrows = append(v.arrows, [3]string{p1, from, to})
			}
		}
		if rest, ok := strings.CutPrefix(el.ID, "port:net."); ok {
			if head, tail, ok := strings.Cut(rest, ".out."); ok {
				v.signals = append(v.signals, head+"."+tail)
			}
		}
	}
	return v
}

// byteSource hands out driveGDM's choices; past the end it reads zeros.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

func (s *byteSource) pick(n int) int {
	if n == 0 {
		return 0
	}
	return s.next() % n
}

func (s *byteSource) done() bool { return s.pos >= len(s.data) }

// buildPair builds the subject and the reference GDM of one source.
func buildPair(t testing.TB, name string) (sub, ref *core.GDM) {
	t.Helper()
	sys := loadSystem(t, name)
	build := func() *core.GDM {
		model, err := comdes.ToModel(sys, comdes.Metamodel())
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Abstract(model, engine.DefaultCOMDESMapping())
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.BindCOMDES(g); err != nil {
			t.Fatal(err)
		}
		machine, state := "", "none"
		if v := vocabOf(g); len(v.states) > 0 {
			machine, state = v.states[0][0], "state:"+v.states[0][0]+"."+v.states[0][1]
		}
		for _, b := range extraBindings(machine, state) {
			if err := g.Bind(b); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	return build(), build()
}

// driveGDM runs the op stream in ops over the subject and reference GDM of
// source name, comparing them after every op.
func driveGDM(t *testing.T, name string, ops []byte) {
	sub, ref := buildPair(t, name)
	v := vocabOf(sub)
	src := &byteSource{data: ops}
	str := func() string {
		switch src.pick(4) {
		case 0:
			return ""
		case 1:
			return v.ids[src.pick(len(v.ids))]
		case 2:
			if len(v.machines) > 0 {
				return v.machines[src.pick(len(v.machines))]
			}
		}
		return fmt.Sprintf("x%d.y", src.pick(4))
	}
	ghosts := 0
	for step := 0; !src.done(); step++ {
		var ev protocol.Event
		isEvent := true
		what := ""
		switch op := src.pick(16); {
		case op <= 2 && len(v.states) > 0:
			st := v.states[src.pick(len(v.states))]
			ev = protocol.Event{Type: protocol.EvStateEnter, Source: st[0], Arg1: st[1]}
		case op <= 4 && len(v.arrows) > 0:
			a := v.arrows[src.pick(len(v.arrows))]
			ev = protocol.Event{Type: protocol.EvTransition, Source: a[0], Arg1: a[1], Arg2: a[2]}
		case op == 5 && len(v.states) > 0:
			a, b := v.states[src.pick(len(v.states))], v.states[src.pick(len(v.states))]
			ev = protocol.Event{Type: protocol.EvTransition, Source: a[0], Arg1: a[1], Arg2: b[1]}
		case op <= 7 && len(v.signals) > 0:
			ev = protocol.Event{Type: protocol.EvSignal, Source: v.signals[src.pick(len(v.signals))], Value: float64(src.next()) - 100.5}
			if src.pick(3) == 0 {
				ev.Arg2 = fmt.Sprintf("v%d", src.pick(5))
			}
			if src.pick(5) == 0 {
				ev.Value = math.Copysign(0, -1)
			}
		case op == 8:
			ev = protocol.Event{Type: protocol.EvWatch, Source: str(), Arg1: str(), Arg2: str(), Value: float64(src.next())}
		case op == 9:
			ev = protocol.Event{Type: protocol.EventType(src.pick(20)), Source: str(), Arg1: str(), Arg2: str()}
		case op == 10:
			ev = protocol.Event{Type: protocol.EvTaskStart, Source: str()}
			if src.pick(4) == 0 {
				ev.Type = protocol.EvTaskDeadline
			}
		case op == 11 && len(v.states) > 0:
			// An element added after BuildScene has no shape until the
			// next BuildScene; it joins an existing machine's group.
			st := v.states[src.pick(len(v.states))]
			group := ""
			if el := sub.Element("state:" + st[0] + "." + st[1]); el != nil {
				group = el.Group
			}
			ghosts++
			ghost := fmt.Sprintf("Ghost%d", ghosts)
			for _, g := range []*core.GDM{sub, ref} {
				if err := g.AddElement(&core.Element{ID: "state:" + st[0] + "." + ghost, Pattern: "Circle", Label: ghost, Group: group}); err != nil {
					t.Fatal(err)
				}
			}
			v.states = append(v.states, [2]string{st[0], ghost})
			v.ids = append(v.ids, "state:"+st[0]+"."+ghost)
			isEvent, what = false, "add "+ghost
		case op == 12:
			b := lateBindings[src.pick(len(lateBindings))]
			for _, g := range []*core.GDM{sub, ref} {
				if err := g.Bind(b); err != nil {
					t.Fatal(err)
				}
			}
			isEvent, what = false, "bind "+b.Name
		case op == 13 && src.pick(4) == 0:
			for _, g := range []*core.GDM{sub, ref} {
				if err := g.BuildScene(); err != nil {
					t.Fatal(err)
				}
			}
			isEvent, what = false, "build scene"
		case op == 14 && src.pick(2) == 0:
			sub.ResetAnimation()
			ref.ResetAnimation()
			isEvent, what = false, "reset"
		default:
			h := src.pick(2) == 0
			sub.SetHalted(h)
			ref.SetHalted(h)
			isEvent, what = false, fmt.Sprintf("halted=%v", h)
		}
		if isEvent {
			what = fmt.Sprintf("%v", ev)
			got, gerr := sub.HandleEvent(ev)
			want, werr := ref.RefHandleEvent(ev)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s step %d %s: error %v, reference %v", name, step, what, gerr, werr)
			}
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s step %d %s: reactions %v, reference %v", name, step, what, got, want)
			}
		}
		compareGDM(t, fmt.Sprintf("%s step %d %s", name, step, what), sub, ref)
	}
}

// compareGDM fails unless the two GDMs are in the same observable state.
func compareGDM(t *testing.T, where string, sub, ref *core.GDM) {
	t.Helper()
	if sub.Commands != ref.Commands || sub.Reactions != ref.Reactions || sub.Unbound != ref.Unbound {
		t.Fatalf("%s: counters %d/%d/%d, reference %d/%d/%d", where,
			sub.Commands, sub.Reactions, sub.Unbound, ref.Commands, ref.Reactions, ref.Unbound)
	}
	if sub.State() != ref.State() {
		t.Fatalf("%s: state %v, reference %v", where, sub.State(), ref.State())
	}
	if !reflect.DeepEqual(sub.LastPulse(), ref.LastPulse()) {
		t.Fatalf("%s: pulses %v, reference %v", where, sub.LastPulse(), ref.LastPulse())
	}
	if a, b := sub.Scene().SVG(), ref.Scene().SVG(); a != b {
		t.Fatalf("%s: SVG differs from the reference's", where)
	}
	if a, b := sub.Scene().ASCII(0, 0), ref.Scene().ASCII(0, 0); a != b {
		t.Fatalf("%s: ASCII differs from the reference's:\n%s\nreference:\n%s", where, a, b)
	}
}

// TestGDMTableMatchesReference: random op streams over every built-in
// model and the .gmdf heating port.
func TestGDMTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2010))
	for _, name := range gdmSources() {
		t.Run(name, func(t *testing.T) {
			for range 2 {
				ops := make([]byte, 500)
				rng.Read(ops)
				driveGDM(t, name, ops)
			}
		})
	}
}

// FuzzGDMMatchesReference runs the same differential on fuzz bytes: the
// first byte picks the source, the rest drive the ops.
func FuzzGDMMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 11, 0, 3, 0, 0, 0, 13, 0, 1, 2, 3})
	f.Add([]byte{2, 8, 1, 1, 1, 1, 12, 0, 7, 0, 0})
	f.Add([]byte{3, 3, 0, 4, 0, 4, 1, 14, 1, 3, 0})
	f.Add([]byte{5, 10, 0, 1, 9, 5, 1, 1, 2})
	sources := gdmSources()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			t.Skip()
		}
		driveGDM(t, sources[int(data[0])%len(sources)], data[1:])
	})
}
