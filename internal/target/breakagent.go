package target

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/expr"
	"repro/internal/protocol"
	"repro/internal/value"
)

// The target-resident breakpoint/step agent: the firmware half of the
// model-level debugger. InSetBreak conditions arrive as expression text
// over the UART, are compiled against the board's symbol table (reusing
// internal/expr — the same language as guards and host-side breakpoint
// predicates), and are evaluated by a codegen.BreakHook at every
// OpStore/OpEmit site of the running VM. A hit halts the board *at the
// triggering instruction*, mid-release, before the deadline latch
// publishes — the latency win over host-side breakpoints, which can only
// halt after the event frame has crossed the line.
//
// Predicates are indexed by the symbols they reference: a store site
// evaluates only the predicates that mention the stored symbol (plus any
// predicate with no resolvable references), so the per-store cost is
// O(affected predicates) instead of O(armed predicates). Symbols written
// by the firmware outside the VM (input latches, host variable writes,
// kernel scheduling counters) mark their predicates *hot*; a hot predicate
// is re-evaluated at every check site until it is observed false — which
// both preserves the pre-index trip timing ("fires at the next check
// site") and keeps a just-hit, still-true condition re-tripping on resume.

// targetBreak is one armed on-target breakpoint.
type targetBreak struct {
	id   string
	text string
	cond expr.Node
	syms []string // referenced symbols resolvable in the program's table
	hot  bool     // re-evaluate at every site until observed false
	seen uint64   // dedupe marker for one check round
	hits uint64
	errs uint64 // condition evaluation failures (unknown symbol, type error)
}

// TargetBreakInfo is the externally visible state of one armed breakpoint.
type TargetBreakInfo struct {
	ID   string
	Cond string
	Hits uint64
	Errs uint64
}

// breakAgent holds the armed breakpoints and step state of one board. It
// implements codegen.BreakHook and expr.Env (conditions read symbol values
// straight from board RAM).
type breakAgent struct {
	b     *Board
	bps   []*targetBreak
	bySym map[string][]*targetBreak // referenced symbol -> predicates
	round uint64

	// stepArm is set by InStep: run until the next model-level event
	// (an instrumented emit or a deadline publish), then halt.
	stepArm bool

	// Trigger details of the most recent hit, consumed by the firmware
	// when it builds the EvBreak/EvStepped frame.
	hitBP   *targetBreak
	stepHit bool
	trigSym string
	trigVal value.Value
	trigHas bool
}

// set compiles and arms (or replaces) a breakpoint condition.
func (a *breakAgent) set(id, cond string) error {
	if id == "" {
		return fmt.Errorf("target: breakpoint with empty id")
	}
	node, err := expr.Parse(cond)
	if err != nil {
		return fmt.Errorf("target: breakpoint %s: %w", id, err)
	}
	nb := &targetBreak{id: id, text: cond, cond: node}
	for _, name := range expr.Vars(node) {
		if _, ok := a.b.Prog.Symbols.Index(name); ok {
			nb.syms = append(nb.syms, name)
		}
	}
	// A freshly armed predicate is hot: it gets one evaluation at the next
	// check site regardless of which symbol changed, so a condition that
	// is already true does not wait for one of its symbols to be stored.
	nb.hot = true
	for i, ex := range a.bps {
		if ex.id == id {
			a.bps[i] = nb
			a.reindex()
			return nil
		}
	}
	a.bps = append(a.bps, nb)
	a.reindex()
	return nil
}

// clear disarms a breakpoint by id.
func (a *breakAgent) clear(id string) bool {
	for i, ex := range a.bps {
		if ex.id == id {
			a.bps = append(a.bps[:i], a.bps[i+1:]...)
			a.reindex()
			return true
		}
	}
	return false
}

// reindex rebuilds the symbol -> predicate index after arming changes.
func (a *breakAgent) reindex() {
	a.bySym = map[string][]*targetBreak{}
	for _, bp := range a.bps {
		for _, s := range bp.syms {
			a.bySym[s] = append(a.bySym[s], bp)
		}
	}
}

// touch marks the predicates referencing a symbol hot — called by the
// firmware when it writes RAM outside the VM (input latching, host
// InWriteVar, scheduling counters), so those predicates are evaluated at
// the next check site exactly as they were before the index existed.
func (a *breakAgent) touch(symName string) {
	for _, bp := range a.bySym[symName] {
		bp.hot = true
	}
}

// armed reports whether the agent has any work at VM check sites.
func (a *breakAgent) armed() bool { return len(a.bps) > 0 || a.stepArm }

// hook returns the agent as a VM break hook, or nil when nothing is armed
// so a clean board pays zero overhead.
func (a *breakAgent) hook() codegen.BreakHook {
	if !a.armed() {
		return nil
	}
	return a
}

// Lookup implements expr.Env: condition identifiers are full symbol names
// ("heater.thermostat.__state", "heater.power__pub") resolved against the
// program's symbol table and read from board RAM.
func (a *breakAgent) Lookup(name string) (value.Value, bool) {
	idx, ok := a.b.Prog.Symbols.Index(name)
	if !ok {
		return value.Value{}, false
	}
	v, err := a.b.LoadSym(idx)
	if err != nil {
		return value.Value{}, false
	}
	return v, true
}

// CheckStore implements codegen.BreakHook at symbol-store sites.
func (a *breakAgent) CheckStore(idx int, v value.Value) (bool, uint64) {
	name := a.b.Prog.Symbols.Sym(idx).Name
	return a.check([]string{name}, name, v, true)
}

// CheckEmit implements codegen.BreakHook at model-event emit sites. A
// pending step always halts here — the emit *is* the next model event.
func (a *breakAgent) CheckEmit(ref codegen.EmitRef) (bool, uint64) {
	src := a.b.Prog.Events[ref.Template].Source
	if a.stepArm {
		a.stepArm = false
		a.stepHit = true
		a.trigSym, a.trigVal, a.trigHas = src, ref.Value, ref.HasValue
		return true, 0
	}
	return a.check([]string{src}, src, ref.Value, ref.HasValue)
}

// check evaluates the armed predicates a change to the named symbols could
// have affected — indexed candidates, hot predicates, and predicates with
// no resolvable references — charging BreakCheckCycles per evaluation.
// trig names the model element whose change prompted the check (stored
// symbol, emitted event source, or publishing task).
func (a *breakAgent) check(names []string, trig string, v value.Value, hasVal bool) (bool, uint64) {
	a.round++
	for _, name := range names {
		for _, bp := range a.bySym[name] {
			bp.seen = a.round
		}
	}
	var cost uint64
	for i, bp := range a.bps {
		if bp.seen != a.round && !bp.hot && len(bp.syms) > 0 {
			continue
		}
		cost += codegen.BreakCheckCycles
		ok, err := expr.EvalBool(bp.cond, a)
		if err != nil {
			bp.errs++
			bp.hot = false
			continue
		}
		if !ok {
			bp.hot = false
			continue
		}
		// Hit. The condition stays hot so a resume with the condition
		// still true re-trips at the very next check site. Candidates of
		// this round that the early return leaves unevaluated go hot too —
		// they were affected by this write and must get their evaluation
		// at the next check site, as they would have pre-index.
		for _, rest := range a.bps[i+1:] {
			if rest.seen == a.round {
				rest.hot = true
			}
		}
		bp.hits++
		bp.hot = true
		// A hit ends a pending step: the board halts here, at a model
		// event, and a later resume must not re-halt at the next one.
		a.hitBP, a.stepHit, a.stepArm = bp, false, false
		a.trigSym, a.trigVal, a.trigHas = trig, v, hasVal
		return true, cost
	}
	return false, cost
}

// hitEvent builds the wire notification for the most recent hit: EvBreak
// for a breakpoint (source id + triggering symbol/value), EvStepped for a
// completed step. at is the virtual time of the triggering instruction.
func (a *breakAgent) hitEvent(at uint64) protocol.Event {
	if a.stepHit {
		a.stepHit = false
		return protocol.Event{Type: protocol.EvStepped, Time: at, Source: a.b.Name, Arg1: a.trigSym}
	}
	ev := protocol.Event{Type: protocol.EvBreak, Time: at, Source: a.hitBP.id, Arg1: a.trigSym}
	if a.trigHas {
		ev.Arg2 = a.trigVal.String()
		ev.Value = a.trigVal.Float()
	}
	return ev
}

// TargetBreaks lists the breakpoints armed on the board by the remote
// debugger, in arming order.
func (b *Board) TargetBreaks() []TargetBreakInfo {
	out := make([]TargetBreakInfo, len(b.agent.bps))
	for i, bp := range b.agent.bps {
		out[i] = TargetBreakInfo{ID: bp.id, Cond: bp.text, Hits: bp.hits, Errs: bp.errs}
	}
	return out
}
