package codegen

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/comdes"
	"repro/internal/expr"
	"repro/internal/protocol"
	"repro/internal/value"
)

// ---- fixtures ----

func heaterSM(t testing.TB) *comdes.StateMachineFB {
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
	return fb
}

func heaterActor(t testing.TB) *comdes.Actor {
	net := comdes.NewNetwork("ctrlnet",
		[]comdes.Port{{Name: "temp", Kind: value.Float}},
		[]comdes.Port{{Name: "heat", Kind: value.Bool}, {Name: "power", Kind: value.Float}})
	net.MustAdd(heaterSM(t))
	net.MustAdd(comdes.MustComponent("limit", "lim", map[string]value.Value{"lo": value.F(0), "hi": value.F(80)}))
	net.MustConnect("", "temp", "ctrl", "temp").
		MustConnect("ctrl", "heat", "", "heat").
		MustConnect("ctrl", "power", "lim", "in").
		MustConnect("lim", "out", "", "power")
	a, err := comdes.NewActor("heater", net, comdes.TaskSpec{PeriodNs: 10_000_000, DeadlineNs: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func singleActorSystem(t testing.TB, a *comdes.Actor) *comdes.System {
	sys := comdes.NewSystem("test_" + a.Name())
	sys.MustAddActor(a)
	return sys
}

// cycleUnit simulates the board's task lifecycle for one actor on a bus:
// write env inputs, latch, execute body, latch outputs, read outputs.
func cycleUnit(t testing.TB, p *Program, u *Unit, bus Bus, env map[string]value.Value) (map[string]value.Value, ExecResult) {
	t.Helper()
	for port, v := range env {
		sym, ok := u.InputSyms[port]
		if !ok {
			t.Fatalf("no input symbol for %q", port)
		}
		if err := bus.StoreSym(sym, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, lp := range u.InLatch {
		v, err := bus.LoadSym(lp.Work)
		if err != nil {
			t.Fatal(err)
		}
		if err := bus.StoreSym(lp.Out, v); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Exec(p, u.Body, bus)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	for _, lp := range u.OutLatch {
		v, err := bus.LoadSym(lp.Work)
		if err != nil {
			t.Fatal(err)
		}
		if err := bus.StoreSym(lp.Out, v); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]value.Value{}
	for port, sym := range u.OutputSyms {
		v, err := bus.LoadSym(sym)
		if err != nil {
			t.Fatal(err)
		}
		out[port] = v
	}
	return out, res
}

func initUnit(t testing.TB, p *Program, u *Unit, bus Bus) {
	t.Helper()
	if _, err := Exec(p, u.Init, bus); err != nil {
		t.Fatal(err)
	}
}

// assertMatchesInterpreter drives the compiled actor and the reference
// interpreter through the same input sequence and requires identical
// outputs every cycle.
func assertMatchesInterpreter(t *testing.T, build func(testing.TB) *comdes.Actor, inputs []map[string]value.Value) {
	t.Helper()
	compiledActor := build(t)
	sys := singleActorSystem(t, compiledActor)
	p, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := p.Unit(compiledActor.Name())
	bus := NewMapBus(p.Symbols)
	initUnit(t, p, u, bus)

	refActor := build(t)
	refSys := singleActorSystem(t, refActor)
	it := comdes.NewInterpreter(refSys)

	for i, env := range inputs {
		got, _ := cycleUnit(t, p, u, bus, env)
		for k, v := range env {
			it.Env[refActor.Name()+"."+k] = v
		}
		want, err := it.StepActor(refActor.Name())
		if err != nil {
			t.Fatalf("cycle %d: interpreter: %v", i, err)
		}
		for port, w := range want {
			g := got[port]
			if !value.Equal(g, w) {
				t.Fatalf("cycle %d output %s: compiled %v != interpreted %v", i, port, g, w)
			}
		}
	}
}

// ---- tests ----

func TestCompileHeaterMatchesInterpreter(t *testing.T) {
	temps := []float64{20, 18, 17, 19.5, 22, 25, 20, 15, 21, 23, 18.9, 19, 21.1}
	var inputs []map[string]value.Value
	for _, tv := range temps {
		inputs = append(inputs, map[string]value.Value{"temp": value.F(tv)})
	}
	assertMatchesInterpreter(t, heaterActor, inputs)
}

func TestCompileFeedbackCounter(t *testing.T) {
	build := func(tb testing.TB) *comdes.Actor {
		net := comdes.NewNetwork("n", nil, []comdes.Port{{Name: "count", Kind: value.Float}})
		net.MustAdd(comdes.MustComponent("const", "one", map[string]value.Value{"value": value.F(1)}))
		net.MustAdd(comdes.MustComponent("sum", "acc", nil))
		net.MustConnect("one", "out", "acc", "a").
			MustConnect("acc", "out", "acc", "b").
			MustConnect("acc", "out", "", "count")
		a, err := comdes.NewActor("counter", net, comdes.TaskSpec{PeriodNs: 1000, DeadlineNs: 1000})
		if err != nil {
			tb.Fatal(err)
		}
		return a
	}
	inputs := make([]map[string]value.Value, 6)
	assertMatchesInterpreter(t, build, inputs)
}

func TestCompileModalMatchesInterpreter(t *testing.T) {
	build := func(tb testing.TB) *comdes.Actor {
		low := comdes.MustComponent("gain", "low", map[string]value.Value{"k": value.F(1)})
		high := comdes.MustComponent("gain", "high", map[string]value.Value{"k": value.F(10)})
		fallback := comdes.MustComponent("const", "dflt", map[string]value.Value{"value": value.F(-1)})
		modal, err := comdes.NewModalFB("sel", "mode",
			[]comdes.Port{{Name: "in", Kind: value.Float}, {Name: "mode", Kind: value.Int}},
			[]comdes.Port{{Name: "out", Kind: value.Float}},
			[]comdes.ModalMode{{Selector: 1, Block: low}, {Selector: 2, Block: high}}, fallback)
		if err != nil {
			tb.Fatal(err)
		}
		net := comdes.NewNetwork("n",
			[]comdes.Port{{Name: "x", Kind: value.Float}, {Name: "mode", Kind: value.Int}},
			[]comdes.Port{{Name: "y", Kind: value.Float}})
		net.MustAdd(modal)
		net.MustConnect("", "x", "sel", "in").
			MustConnect("", "mode", "sel", "mode").
			MustConnect("sel", "out", "", "y")
		a, err := comdes.NewActor("mixer", net, comdes.TaskSpec{PeriodNs: 1000, DeadlineNs: 500})
		if err != nil {
			tb.Fatal(err)
		}
		return a
	}
	var inputs []map[string]value.Value
	for _, m := range []int64{1, 2, 7, 2, 1, 0} {
		inputs = append(inputs, map[string]value.Value{"x": value.F(4), "mode": value.I(m)})
	}
	assertMatchesInterpreter(t, build, inputs)
}

func TestCompileCompositeMatchesInterpreter(t *testing.T) {
	build := func(tb testing.TB) *comdes.Actor {
		inner := comdes.NewNetwork("pipe",
			[]comdes.Port{{Name: "in", Kind: value.Float}},
			[]comdes.Port{{Name: "out", Kind: value.Float}})
		inner.MustAdd(comdes.MustComponent("gain", "g", map[string]value.Value{"k": value.F(2)}))
		inner.MustAdd(comdes.MustComponent("limit", "lim", map[string]value.Value{"lo": value.F(0), "hi": value.F(50)}))
		inner.MustConnect("", "in", "g", "in").
			MustConnect("g", "out", "lim", "in").
			MustConnect("lim", "out", "", "out")
		comp, err := comdes.NewCompositeFB(inner)
		if err != nil {
			tb.Fatal(err)
		}
		net := comdes.NewNetwork("n",
			[]comdes.Port{{Name: "x", Kind: value.Float}},
			[]comdes.Port{{Name: "y", Kind: value.Float}})
		net.MustAdd(comp)
		net.MustAdd(comdes.MustComponent("gain", "post", map[string]value.Value{"k": value.F(3)}))
		net.MustConnect("", "x", "pipe", "in").
			MustConnect("pipe", "out", "post", "in").
			MustConnect("post", "out", "", "y")
		a, err := comdes.NewActor("outer", net, comdes.TaskSpec{PeriodNs: 1000, DeadlineNs: 500})
		if err != nil {
			tb.Fatal(err)
		}
		return a
	}
	var inputs []map[string]value.Value
	for _, x := range []float64{1, 10, 40, -3, 0.5} {
		inputs = append(inputs, map[string]value.Value{"x": value.F(x)})
	}
	assertMatchesInterpreter(t, build, inputs)
}

func TestInstrumentationEmitsEvents(t *testing.T) {
	sys := singleActorSystem(t, heaterActor(t))
	p, err := Compile(sys, Options{Instrument: Instrument{StateEnter: true, Transitions: true, Signals: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Instrumented {
		t.Error("Instrumented flag not set")
	}
	u := p.Unit("heater")
	bus := NewMapBus(p.Symbols)
	// Boot: initial state event.
	res, err := Exec(p, u.Init, bus)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emits) != 1 || p.Events[res.Emits[0].Template].Type != protocol.EvStateEnter {
		t.Fatalf("init emits = %v", res.Emits)
	}
	if p.Events[res.Emits[0].Template].Arg1 != "Idle" {
		t.Error("initial state event wrong")
	}
	// Cold input: transition + state-enter.
	_, res = cycleUnit(t, p, u, bus, map[string]value.Value{"temp": value.F(10)})
	var kinds []protocol.EventType
	for _, e := range res.Emits {
		kinds = append(kinds, p.Events[e.Template].Type)
	}
	if len(kinds) != 2 || kinds[0] != protocol.EvTransition || kinds[1] != protocol.EvStateEnter {
		t.Fatalf("transition emits = %v", kinds)
	}
	tr := p.Events[res.Emits[0].Template]
	if tr.Arg1 != "Idle" || tr.Arg2 != "Heating" || tr.Source != "heater.ctrl" {
		t.Errorf("transition template = %+v", tr)
	}
	// No transition: no emits.
	_, res = cycleUnit(t, p, u, bus, map[string]value.Value{"temp": value.F(20)})
	if len(res.Emits) != 0 {
		t.Errorf("steady-state emits = %v", res.Emits)
	}
	// Signal templates registered for the two outputs.
	if len(u.SignalEvents) != 2 {
		t.Errorf("SignalEvents = %v", u.SignalEvents)
	}
}

func TestInstrumentationOverheadCycles(t *testing.T) {
	sys1 := singleActorSystem(t, heaterActor(t))
	clean, err := Compile(sys1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys2 := singleActorSystem(t, heaterActor(t))
	instr, err := Compile(sys2, Options{Instrument: Instrument{StateEnter: true, Transitions: true}})
	if err != nil {
		t.Fatal(err)
	}
	busC, busI := NewMapBus(clean.Symbols), NewMapBus(instr.Symbols)
	uc, ui := clean.Unit("heater"), instr.Unit("heater")
	initUnit(t, clean, uc, busC)
	initUnit(t, instr, ui, busI)
	// Drive a transition so the instrumented path executes emits.
	_, rc := cycleUnit(t, clean, uc, busC, map[string]value.Value{"temp": value.F(10)})
	_, ri := cycleUnit(t, instr, ui, busI, map[string]value.Value{"temp": value.F(10)})
	if ri.Cycles <= rc.Cycles {
		t.Errorf("instrumented (%d) must cost more cycles than clean (%d)", ri.Cycles, rc.Cycles)
	}
	if ri.Cycles-rc.Cycles < 2*EmitCycles {
		t.Errorf("overhead %d below 2 emits", ri.Cycles-rc.Cycles)
	}
}

func TestFaultRewire(t *testing.T) {
	// Rewire connection 2 (ctrl.power -> lim.in) to take the raw temp
	// input instead: the limiter then clamps the temperature, so power is
	// 10 instead of 80 on a cold cycle.
	sys := singleActorSystem(t, heaterActor(t))
	p, err := Compile(sys, Options{FaultRewire: &Rewire{
		Actor: "heater", ConnIndex: 2, FromBlock: "", FromPort: "temp",
	}})
	if err != nil {
		t.Fatal(err)
	}
	u := p.Unit("heater")
	bus := NewMapBus(p.Symbols)
	initUnit(t, p, u, bus)
	out, _ := cycleUnit(t, p, u, bus, map[string]value.Value{"temp": value.F(10)})
	if out["power"].Float() == 80 {
		t.Error("rewire had no effect")
	}
	// An invalid rewire falls back to the original wiring.
	sys2 := singleActorSystem(t, heaterActor(t))
	p2, err := Compile(sys2, Options{FaultRewire: &Rewire{
		Actor: "heater", ConnIndex: 2, FromBlock: "ghost", FromPort: "x",
	}})
	if err != nil {
		t.Fatal(err)
	}
	u2 := p2.Unit("heater")
	bus2 := NewMapBus(p2.Symbols)
	initUnit(t, p2, u2, bus2)
	out2, _ := cycleUnit(t, p2, u2, bus2, map[string]value.Value{"temp": value.F(10)})
	if out2["power"].Float() != 80 {
		t.Errorf("fallback wiring broken: %v", out2["power"])
	}
}

func TestSymbolTable(t *testing.T) {
	st := NewSymbolTable()
	i1, err := st.Alloc("a", value.Float, "elem1")
	if err != nil {
		t.Fatal(err)
	}
	i2, _ := st.Alloc("b", value.Bool, "")
	if _, err := st.Alloc("a", value.Float, ""); err == nil {
		t.Error("duplicate symbol should fail")
	}
	if _, err := st.Alloc("s", value.String, ""); err == nil {
		t.Error("string symbol should fail")
	}
	if st.Sym(i1).Addr != 0 || st.Sym(i2).Addr != 8 {
		t.Error("address allocation wrong")
	}
	if st.RAMSize() != 16 || st.Len() != 2 {
		t.Error("table size wrong")
	}
	if idx, ok := st.Index("b"); !ok || idx != i2 {
		t.Error("Index broken")
	}
	if len(st.All()) != 2 {
		t.Error("All broken")
	}
}

func TestListingAndDisassembly(t *testing.T) {
	sys := singleActorSystem(t, heaterActor(t))
	p, err := Compile(sys, Options{Instrument: Instrument{Transitions: true}})
	if err != nil {
		t.Fatal(err)
	}
	src := strings.Join(p.Source, "\n")
	for _, want := range []string{"task_heater", "state == Idle", "transition cold", "clamp"} {
		if !strings.Contains(src, want) {
			t.Errorf("listing missing %q", want)
		}
	}
	u := p.Unit("heater")
	// Every instruction's line must be valid.
	for _, in := range append(append([]Instr{}, u.Init...), u.Body...) {
		if int(in.Line) >= len(p.Source) {
			t.Fatalf("instruction line %d out of range", in.Line)
		}
	}
	dis := strings.Join(p.Disassemble(u.Body), "\n")
	for _, want := range []string{"LOAD", "STORE", "JZ", "EMIT", "PUSH"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
	if p.Unit("ghost") != nil {
		t.Error("Unit lookup broken")
	}
}

func TestOpStringAndCycles(t *testing.T) {
	for op := OpNop; op <= OpHalt; op++ {
		if strings.Contains(op.String(), "Op(") {
			t.Errorf("op %d has no name", op)
		}
		if op.Cycles() == 0 {
			t.Errorf("op %v has zero cost", op)
		}
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Error("unknown op name")
	}
	if OpEmit.Cycles() != EmitCycles {
		t.Error("emit cost wrong")
	}
}

func TestVMErrors(t *testing.T) {
	p := &Program{Symbols: NewSymbolTable()}
	si, _ := p.Symbols.Alloc("x", value.Float, "")
	bus := NewMapBus(p.Symbols)
	// Division by zero.
	code := []Instr{
		{Op: OpPush, A: p.constIndex(value.F(1))},
		{Op: OpPush, A: p.constIndex(value.F(0))},
		{Op: OpDiv},
	}
	if _, err := Exec(p, code, bus); err == nil {
		t.Error("div by zero should fail")
	}
	// Bad symbol index.
	if _, err := Exec(p, []Instr{{Op: OpLoad, A: 99}}, bus); err == nil {
		t.Error("bad load should fail")
	}
	if _, err := Exec(p, []Instr{{Op: OpPush, A: p.constIndex(value.F(1))}, {Op: OpStore, A: 99}}, bus); err == nil {
		t.Error("bad store should fail")
	}
	// Infinite loop hits the step limit.
	if _, err := Exec(p, []Instr{{Op: OpJmp, A: 0}}, bus); err == nil {
		t.Error("step limit should trip")
	}
	// Unknown opcode.
	if _, err := Exec(p, []Instr{{Op: Op(99)}}, bus); err == nil {
		t.Error("unknown op should fail")
	}
	// Halt stops cleanly.
	res, err := Exec(p, []Instr{{Op: OpHalt}, {Op: OpLoad, A: 99}}, bus)
	if err != nil || res.Steps != 1 {
		t.Error("halt broken")
	}
	// Neg of bool fails.
	code = []Instr{{Op: OpPush, A: p.constIndex(value.B(true))}, {Op: OpNeg}}
	if _, err := Exec(p, code, bus); err == nil {
		t.Error("neg bool should fail")
	}
	// Compare string/int fails.
	code = []Instr{
		{Op: OpPush, A: p.constIndex(value.S("a"))},
		{Op: OpPush, A: p.constIndex(value.I(1))},
		{Op: OpLT},
	}
	if _, err := Exec(p, code, bus); err == nil {
		t.Error("bad compare should fail")
	}
	// Builtin error propagates.
	sq, _ := builtinIndex("sqrt")
	code = []Instr{{Op: OpPush, A: p.constIndex(value.F(-1))}, {Op: OpCall, A: sq, B: 1}}
	if _, err := Exec(p, code, bus); err == nil {
		t.Error("sqrt(-1) should fail")
	}
	_ = si
}

// Property: compiled expression evaluation equals interpreted evaluation
// for random expressions over two variables.
func TestQuickCompiledExprMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ops := []string{"+", "-", "*", "&&", "||", "<", ">", "==", "<=", ">=", "!="}
	var gen func(depth int) string
	gen = func(depth int) string {
		if depth == 0 || r.Intn(3) == 0 {
			switch r.Intn(4) {
			case 0:
				return value.F(float64(r.Intn(20)) / 2).String()
			case 1:
				return "a"
			case 2:
				return "b"
			default:
				return []string{"true", "false"}[r.Intn(2)]
			}
		}
		op := ops[r.Intn(len(ops))]
		return "(" + gen(depth-1) + " " + op + " " + gen(depth-1) + ")"
	}
	for i := 0; i < 400; i++ {
		src := gen(4)
		node, err := expr.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		env := expr.MapEnv{"a": value.F(float64(r.Intn(10)) - 5), "b": value.F(float64(r.Intn(10)) - 5)}
		want, errWant := expr.Eval(node, env)

		p := &Program{Symbols: NewSymbolTable()}
		sa, _ := p.Symbols.Alloc("a", value.Float, "")
		sb, _ := p.Symbols.Alloc("b", value.Float, "")
		sout, _ := p.Symbols.Alloc("out", value.Float, "")
		c := &compiler{prog: p}
		var code []Instr
		resolve := func(name string) (int, error) {
			if name == "a" {
				return sa, nil
			}
			return sb, nil
		}
		if err := c.compileExpr(&code, node, resolve, nil, 0); err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		code = append(code, Instr{Op: OpStore, A: int32(sout)})
		bus := NewMapBus(p.Symbols)
		_ = bus.StoreSym(sa, env["a"])
		_ = bus.StoreSym(sb, env["b"])
		_, errGot := Exec(p, code, bus)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("%q: interp err=%v, compiled err=%v", src, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		got, _ := bus.LoadSym(sout)
		wantF, _ := value.Convert(want, value.Float)
		if got.Float() != wantF.Float() {
			t.Fatalf("%q: compiled %v != interpreted %v", src, got, want)
		}
	}
}

// hookRecorder is a BreakHook that trips on one symbol index and records
// every check site it was consulted at.
type hookRecorder struct {
	tripIdx int
	stores  []int
	emits   int
}

func (h *hookRecorder) CheckStore(idx int, v value.Value) (bool, uint64) {
	h.stores = append(h.stores, idx)
	return idx == h.tripIdx, BreakCheckCycles
}

func (h *hookRecorder) CheckEmit(ref EmitRef) (bool, uint64) {
	h.emits++
	return false, BreakCheckCycles
}

// TestBreakHookHaltsAndResumes pins the VM half of the target-resident
// agent: the hook runs at every store site, a hit halts the machine at
// that instruction with the check cycles charged, and a later Run
// continues from the instruction after the hit to normal completion.
func TestBreakHookHaltsAndResumes(t *testing.T) {
	sys := singleActorSystem(t, heaterActor(t))
	prog, err := Compile(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := prog.Unit("heater")
	bus := NewMapBus(prog.Symbols)
	if _, err := Exec(prog, u.Init, bus); err != nil {
		t.Fatal(err)
	}
	_ = bus.StoreSym(u.InputSyms["temp"], value.F(10)) // cold: transition fires
	for _, lp := range u.InLatch {
		v, _ := bus.LoadSym(lp.Work)
		_ = bus.StoreSym(lp.Out, v)
	}
	stateIdx, ok := prog.Symbols.Index("heater.ctrl.__state")
	if !ok {
		t.Fatal("state symbol missing")
	}

	// Baseline run without a hook for the cycle reference.
	ref := NewMapBus(prog.Symbols)
	copy(ref.Vals, bus.Vals)
	base, err := Exec(prog, u.Body, ref)
	if err != nil {
		t.Fatal(err)
	}
	if base.BreakPC != -1 {
		t.Fatalf("hookless run reports BreakPC %d", base.BreakPC)
	}

	hook := &hookRecorder{tripIdx: stateIdx}
	m := NewMachine(prog, u.Body, bus)
	m.Hook = hook
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BreakPC < 0 {
		t.Fatal("hook hit did not halt the run")
	}
	if u.Body[res.BreakPC].Op != OpStore || int(u.Body[res.BreakPC].A) != stateIdx {
		t.Fatalf("halted at pc %d (%v), want the state store", res.BreakPC, u.Body[res.BreakPC].Op)
	}
	if m.PC != res.BreakPC+1 {
		t.Fatalf("PC = %d after hit at %d, want the next instruction", m.PC, res.BreakPC)
	}
	if len(hook.stores) == 0 || hook.stores[len(hook.stores)-1] != stateIdx {
		t.Fatalf("store sites checked: %v", hook.stores)
	}
	checks := uint64(len(hook.stores)+hook.emits) * BreakCheckCycles
	if res.CheckCycles != checks {
		t.Errorf("CheckCycles = %d, want %d", res.CheckCycles, checks)
	}

	// Resume: the same machine runs to completion and the total work
	// matches the hookless run plus the check overhead.
	hook.tripIdx = -1
	res, err = m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BreakPC != -1 {
		t.Fatalf("resumed run halted again at %d", res.BreakPC)
	}
	if !m.Done() {
		t.Fatal("resumed run did not finish")
	}
	finalChecks := uint64(len(hook.stores)+hook.emits) * BreakCheckCycles
	if res.Cycles != base.Cycles+finalChecks {
		t.Errorf("cycles = %d, want base %d + checks %d", res.Cycles, base.Cycles, finalChecks)
	}
	// The split runs computed the same state as the uninterrupted run.
	for i, v := range bus.Vals {
		if !value.Equal(v, ref.Vals[i]) {
			t.Errorf("symbol %s diverged: %v vs %v", prog.Symbols.Sym(i).Name, v, ref.Vals[i])
		}
	}
}
