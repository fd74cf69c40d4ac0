package engine

import (
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/core"
	"repro/internal/jtag"
	"repro/internal/metamodel"
	"repro/internal/protocol"
)

// This file is the COMDES-specific glue of the prototype (the paper:
// "The COMDES design model is the only input model used in the current
// tool"): the default abstraction mapping, the default command→reaction
// bindings, the passive-interface event translator, and watch-list
// construction from the generated symbol table. The core abstraction
// engine itself stays language-agnostic.

// DefaultCOMDESMapping returns the pairing the prototype ships with:
// states as circles, transitions as arrows, function blocks as
// rectangles, ports as triangles and dataflow connections as lines —
// covering both COMDES viewpoints (state machine + dataflow) in one GDM.
func DefaultCOMDESMapping() *core.Mapping {
	m := core.NewMapping()
	m.MustPair(core.Rule{MetaClass: "State", Pattern: "Circle"})
	m.MustPair(core.Rule{MetaClass: "Transition", Pattern: "Arrow", Resolve: core.ResolveRefs("from", "to")})
	m.MustPair(core.Rule{MetaClass: "FunctionBlock", Pattern: "Rectangle"})
	m.MustPair(core.Rule{MetaClass: "SignalPort", Pattern: "Triangle"})
	m.MustPair(core.Rule{MetaClass: "Connection", Pattern: "Line", Resolve: ResolveCOMDESConnection})
	return m
}

// MinimalCOMDESMapping maps only the state-machine viewpoint (the Fig. 5
// screenshot shows exactly this: the machine's states and transitions).
func MinimalCOMDESMapping() *core.Mapping {
	m := core.NewMapping()
	m.MustPair(core.Rule{MetaClass: "State", Pattern: "Circle"})
	m.MustPair(core.Rule{MetaClass: "Transition", Pattern: "Arrow", Resolve: core.ResolveRefs("from", "to")})
	return m
}

// ResolveCOMDESConnection resolves a Connection object's endpoints to
// block or network-port element ids following the bridge's id scheme.
func ResolveCOMDESConnection(o *metamodel.Object) (string, string, error) {
	net := o.Container()
	if net == nil || !strings.HasPrefix(net.ID(), "net:") {
		return "", "", fmt.Errorf("engine: connection %s has no network container", o.ID())
	}
	path := strings.TrimPrefix(net.ID(), "net:")
	parse := func(ep, dir string) string {
		if i := strings.LastIndex(ep, "."); i >= 0 {
			return comdes.BlockID(path + "." + ep[:i])
		}
		return "port:net." + path + "." + dir + "." + ep
	}
	from := parse(o.GetString("from"), "in")
	to := parse(o.GetString("to"), "out")
	return from, to, nil
}

// BindCOMDES installs the prototype's default command→reaction table
// (Fig. 6 step 4): active states highlight exclusively within their
// machine, fired transitions pulse their arrow, and signal updates badge
// the producing port with the live value.
func BindCOMDES(g *core.GDM) error {
	bindings := []core.Binding{
		{
			Name: "state-enter", Event: protocol.EvStateEnter,
			KeyTemplate: "state:$source.$arg1", Reaction: core.ReactHighlightExclusive,
		},
		{
			Name: "transition-fired", Event: protocol.EvTransition, ArrowMatch: true,
			FromKey: "state:$source.$arg1", ToKey: "state:$source.$arg2",
			Reaction: core.ReactPulse,
		},
		{
			Name: "signal-update", Event: protocol.EvSignal,
			KeyTemplate: "port:net.$sourceHead.out.$sourceTail", Reaction: core.ReactBadge,
		},
	}
	for _, b := range bindings {
		if err := g.Bind(b); err != nil {
			return err
		}
	}
	return nil
}

// smInfo describes one state machine for the watch translator.
type smInfo struct {
	path   string
	states []string
}

// WatchTranslator builds the passive-interface translator: EvWatch
// notifications on __state symbols become EvStateEnter commands, and
// notifications on published output symbols become EvSignal commands —
// so the GDM animates identically over JTAG and RS-232 (the paper's
// "compatible with various embedded system applications").
func WatchTranslator(sys *comdes.System) func(protocol.Event) protocol.Event {
	machines := map[string]smInfo{}
	pubs := map[string]string{}
	var walkBlock func(path string, b comdes.Block)
	walkBlock = func(path string, b comdes.Block) {
		switch fb := b.(type) {
		case *comdes.StateMachineFB:
			names := make([]string, len(fb.States()))
			for i, st := range fb.States() {
				names[i] = st.Name
			}
			machines[path+".__state"] = smInfo{path: path, states: names}
		case *comdes.CompositeFB:
			for _, inner := range fb.Network().Blocks() {
				walkBlock(path+"."+inner.Name(), inner)
			}
		case *comdes.ModalFB:
			for _, md := range fb.Modes() {
				walkBlock(fmt.Sprintf("%s.m%d.%s", path, md.Selector, md.Block.Name()), md.Block)
			}
			if fb.Fallback() != nil {
				walkBlock(path+".fallback."+fb.Fallback().Name(), fb.Fallback())
			}
		}
	}
	for _, a := range sys.Actors {
		for _, b := range a.Net.Blocks() {
			walkBlock(a.Name()+"."+b.Name(), b)
		}
		for _, p := range a.Outputs() {
			pubs[a.Name()+"."+p.Name+"__pub"] = a.Name() + "." + p.Name
		}
	}
	return func(ev protocol.Event) protocol.Event {
		if ev.Type != protocol.EvWatch {
			return ev
		}
		if sm, ok := machines[ev.Source]; ok {
			idx := int(ev.Value)
			if idx >= 0 && idx < len(sm.states) {
				return protocol.Event{
					Type: protocol.EvStateEnter, Seq: ev.Seq, Time: ev.Time,
					Source: sm.path, Arg1: sm.states[idx],
				}
			}
		}
		if sig, ok := pubs[ev.Source]; ok {
			return protocol.Event{
				Type: protocol.EvSignal, Seq: ev.Seq, Time: ev.Time,
				Source: sig, Value: ev.Value, Arg2: ev.Arg2,
			}
		}
		// Kernel scheduling counters: a growing __misses / __preempts RAM
		// value becomes the same model-level event the active interface
		// reports, so deadline misses and preemptions are visible over
		// JTAG too. The zero baseline of the first poll stays a plain
		// watch (no incident has happened yet).
		if actor, ok := strings.CutSuffix(ev.Source, ".__misses"); ok && ev.Value > 0 {
			return protocol.Event{
				Type: protocol.EvDeadlineMiss, Seq: ev.Seq, Time: ev.Time,
				Source: actor, Value: ev.Value,
			}
		}
		if actor, ok := strings.CutSuffix(ev.Source, ".__preempts"); ok && ev.Value > 0 {
			return protocol.Event{
				Type: protocol.EvPreempt, Seq: ev.Seq, Time: ev.Time,
				Source: actor, Value: ev.Value,
			}
		}
		return ev
	}
}

// AutoWatches registers the monitored variables the paper's Fig. 2
// describes ("the user needs to select one or more monitored variables
// that are considered to be critical, e.g. variable s is critical if it
// saves state information"): every state variable and every published
// actor output in the generated symbol table.
func AutoWatches(w *jtag.Watcher, prog *codegen.Program) error {
	for _, sym := range prog.Symbols.All() {
		watch := strings.HasSuffix(sym.Name, ".__state") || strings.HasSuffix(sym.Name, "__pub") ||
			strings.HasSuffix(sym.Name, ".__misses") || strings.HasSuffix(sym.Name, ".__preempts") ||
			sym.Name == "__busdrops"
		if !watch {
			continue
		}
		if err := w.Add(jtag.Watch{Symbol: sym.Name, Addr: sym.Addr, Size: int(sym.Size), Kind: sym.Kind}); err != nil {
			return err
		}
	}
	return nil
}

// MissCond translates a model-level "break when actor misses a deadline"
// into a condition over the kernel's __misses RAM counter, evaluable by
// the target-resident breakpoint agent at the miss itself.
func MissCond(sys *comdes.System, actor string) (string, error) {
	if sys.Actor(actor) == nil {
		return "", fmt.Errorf("engine: no actor %q", actor)
	}
	return missCond(actor), nil
}

func missCond(actor string) string { return actor + ".__misses > 0" }

// MissBreakpoint builds the standard deadline-overrun breakpoint for an
// actor: over the active interface the TargetCond halts the board at the
// latch instant of the missing release; over passive/replay sources the
// EvDeadlineMiss event pattern is filtered host-side. The actor name is
// not validated here (no system in reach) — callers holding the design
// model should check it with MissCond first, as the facade does, since a
// misspelled actor arms a never-firing condition that still costs
// BreakCheckCycles at every check site.
func MissBreakpoint(id, actor string) Breakpoint {
	return Breakpoint{
		ID:         id,
		Event:      protocol.EvDeadlineMiss,
		Source:     actor,
		TargetCond: missCond(actor),
	}
}

// StateCond translates a model-level "break when machine enters state S"
// into a condition over the generated state symbol ("path.__state == i"),
// evaluable by the target-resident breakpoint agent. machinePath is the
// actor-qualified state machine block name ("heater.thermostat").
func StateCond(sys *comdes.System, machinePath, state string) (string, error) {
	dot := strings.IndexByte(machinePath, '.')
	if dot < 0 {
		return "", fmt.Errorf("engine: machine path %q is not actor.block", machinePath)
	}
	actor := sys.Actor(machinePath[:dot])
	if actor == nil {
		return "", fmt.Errorf("engine: no actor %q", machinePath[:dot])
	}
	sm, ok := actor.Net.Block(machinePath[dot+1:]).(*comdes.StateMachineFB)
	if !ok {
		return "", fmt.Errorf("engine: no state machine %q", machinePath)
	}
	idx, ok := sm.StateIndex(state)
	if !ok {
		return "", fmt.Errorf("engine: machine %s has no state %q", machinePath, state)
	}
	return fmt.Sprintf("%s.__state == %d", machinePath, idx), nil
}
