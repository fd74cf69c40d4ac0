package codegen

import (
	"fmt"

	"repro/internal/comdes"
	"repro/internal/expr"
	"repro/internal/protocol"
	"repro/internal/value"
)

// Instrument selects which model-level execution points the active command
// interface reports (the paper's Fig. 6 step 4 "command setting": which
// command triggers which reaction — here, which code points emit commands).
type Instrument struct {
	StateEnter  bool
	Transitions bool
	Signals     bool // EvSignal for every actor output at its deadline latch
	TaskEvents  bool // EvTaskStart / EvTaskDeadline per task
}

// Any reports whether any instrumentation is enabled.
func (i Instrument) Any() bool {
	return i.StateEnter || i.Transitions || i.Signals || i.TaskEvents
}

// Rewire deliberately mis-wires one connection of an actor's top network
// during compilation — a seeded model-transformation bug (experiment E9).
type Rewire struct {
	Actor     string
	ConnIndex int
	FromBlock string
	FromPort  string
}

// Options configures a compilation.
type Options struct {
	Instrument Instrument
	// FaultRewire, when non-nil, reroutes one connection — an
	// implementation error.
	FaultRewire *Rewire
	// BusDrops allocates the node-level "__busdrops" RAM counter the
	// firmware maintains on a time-triggered cluster bus. Off by default so
	// single-board and constant-latency programs keep their exact RAM
	// layout.
	BusDrops bool
}

// Compile transforms a validated COMDES system into a Program.
func Compile(sys *comdes.System, opts Options) (*Program, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	c := &compiler{
		prog: &Program{Name: sys.Name(), Symbols: NewSymbolTable(), Instrumented: opts.Instrument.Any()},
		opts: opts,
	}
	c.prog.line("// generated from COMDES system %q — pseudo-C listing", sys.Name())
	c.prog.BusDropSym = -1
	for _, a := range sys.Actors {
		if err := c.compileActor(a); err != nil {
			return nil, err
		}
	}
	if opts.BusDrops {
		sym, err := c.alloc("__busdrops", value.Int, "")
		if err != nil {
			return nil, err
		}
		c.prog.BusDropSym = sym
	}
	// Last pass: mark superinstruction sites now, while the Program is
	// still exclusively owned, so the marks travel with the shared Program
	// (the farm compiles once per model) and no later consumer ever
	// mutates it concurrently.
	for _, u := range c.prog.Units {
		markFused(u.Init)
		markFused(u.Body)
	}
	return c.prog, nil
}

type compiler struct {
	prog *Program
	opts Options
	unit *Unit
}

// alloc wraps symbol allocation with error accumulation context.
func (c *compiler) alloc(name string, kind value.Kind, element string) (int, error) {
	return c.prog.Symbols.Alloc(name, kind, element)
}

func (c *compiler) compileActor(a *comdes.Actor) error {
	u := &Unit{
		Name:         a.Name(),
		Period:       a.Task.PeriodNs,
		Offset:       a.Task.OffsetNs,
		Deadline:     a.Task.DeadlineNs,
		Priority:     a.Task.Priority,
		SignalEvents: map[int]int{},
		InputSyms:    map[string]int{},
		OutputSyms:   map[string]int{},
	}
	c.unit = u
	c.prog.line("")
	ln := c.prog.line("void task_%s(void) { // period %d ns, deadline %d ns", a.Name(), u.Period, u.Deadline)

	// Actor input ports: an __io symbol (written asynchronously by the
	// environment / bindings) and a latched symbol (stable during the task
	// instance).
	inSyms := map[string]int{}
	for _, p := range a.Inputs() {
		io, err := c.alloc(a.Name()+"."+p.Name+"__io", p.Kind, "")
		if err != nil {
			return err
		}
		latched, err := c.alloc(a.Name()+"."+p.Name, p.Kind, comdes.PortID(a.Name(), "in", p.Name))
		if err != nil {
			return err
		}
		u.InputSyms[p.Name] = io
		u.InLatch = append(u.InLatch, LatchPair{Work: io, Out: latched})
		inSyms[p.Name] = latched
		c.prog.line("  latch_input(%s); // at release", p.Name)
	}

	net := a.Net
	if c.opts.FaultRewire != nil && c.opts.FaultRewire.Actor == a.Name() {
		net = rewiredNetwork(net, *c.opts.FaultRewire)
	}

	resolveIn := func(port string) (int, error) {
		s, ok := inSyms[port]
		if !ok {
			return 0, fmt.Errorf("codegen: actor %s: unresolved network input %q", a.Name(), port)
		}
		return s, nil
	}
	netOuts, err := c.compileNetwork(a.Name(), net, resolveIn, &u.Init, &u.Body, ln)
	if err != nil {
		return err
	}

	// Published output symbols + deadline latch plan.
	for _, p := range a.Outputs() {
		pub, err := c.alloc(a.Name()+"."+p.Name+"__pub", p.Kind, comdes.PortID(a.Name(), "out", p.Name))
		if err != nil {
			return err
		}
		work, ok := netOuts[p.Name]
		if !ok {
			return fmt.Errorf("codegen: actor %s: output %q not driven", a.Name(), p.Name)
		}
		u.OutputSyms[p.Name] = pub
		u.OutLatch = append(u.OutLatch, LatchPair{Work: work, Out: pub})
		c.prog.line("  latch_output(%s); // at deadline", p.Name)
		if c.opts.Instrument.Signals {
			tmpl := EventTemplate{
				Type:      protocol.EvSignal,
				Source:    a.Name() + "." + p.Name,
				Element:   comdes.PortID(a.Name(), "out", p.Name),
				WithValue: true,
			}
			u.SignalEvents[pub] = int(c.prog.eventIndex(tmpl))
		}
	}
	// Kernel-maintained scheduling counters: deadline misses and
	// preemptions live in RAM like any other symbol, so the passive JTAG
	// watch engine and on-target breakpoint conditions observe scheduling
	// incidents at zero instrumentation cost.
	if u.MissSym, err = c.alloc(a.Name()+".__misses", value.Int, ""); err != nil {
		return err
	}
	if u.PreemptSym, err = c.alloc(a.Name()+".__preempts", value.Int, ""); err != nil {
		return err
	}
	c.prog.line("}")
	c.prog.Units = append(c.prog.Units, u)
	return nil
}

// rewiredNetwork clones the network wiring with one connection's source
// replaced. Only the connection list differs; blocks are shared.
func rewiredNetwork(net *comdes.Network, r Rewire) *comdes.Network {
	clone := comdes.NewNetwork(net.Name(), net.Inputs(), net.Outputs())
	for _, b := range net.Blocks() {
		_ = clone.Add(b)
	}
	for i, conn := range net.Connections() {
		from, fport := conn.FromBlock, conn.FromPort
		if i == r.ConnIndex {
			from, fport = r.FromBlock, r.FromPort
		}
		// Faulty rewires may violate typing; that is the point of the
		// experiment, so wiring errors fall back to the original edge.
		if err := clone.Connect(from, fport, conn.ToBlock, conn.ToPort); err != nil {
			_ = clone.Connect(conn.FromBlock, conn.FromPort, conn.ToBlock, conn.ToPort)
		}
	}
	return clone
}

// compileNetwork compiles net's blocks in declaration order. pathPrefix
// scopes symbol names; resolveNetInput supplies symbols for the network's
// own input ports. It returns a map from network output port -> source
// symbol.
func (c *compiler) compileNetwork(pathPrefix string, net *comdes.Network,
	resolveNetInput func(string) (int, error), init, body *[]Instr, line int32) (map[string]int, error) {

	// Allocate every block's output symbols first so any connection
	// (including feedback) resolves.
	blockOut := map[string]map[string]int{}
	for _, b := range net.Blocks() {
		path := pathPrefix + "." + b.Name()
		outs := map[string]int{}
		for _, p := range b.Outputs() {
			sym, err := c.alloc(path+"."+p.Name, p.Kind, "")
			if err != nil {
				return nil, err
			}
			outs[p.Name] = sym
		}
		blockOut[b.Name()] = outs
	}

	// resolveSource finds the symbol feeding a connection source.
	resolveSource := func(conn comdes.Connection) (int, error) {
		if conn.FromBlock == "" {
			return resolveNetInput(conn.FromPort)
		}
		outs, ok := blockOut[conn.FromBlock]
		if !ok {
			return 0, fmt.Errorf("codegen: %s: unknown block %q", pathPrefix, conn.FromBlock)
		}
		sym, ok := outs[conn.FromPort]
		if !ok {
			return 0, fmt.Errorf("codegen: %s: block %s has no output %q", pathPrefix, conn.FromBlock, conn.FromPort)
		}
		return sym, nil
	}

	// Input resolver per block from the connection list.
	blockInputSym := func(blockName, port string) (int, error) {
		for _, conn := range net.Connections() {
			if conn.ToBlock == blockName && conn.ToPort == port {
				return resolveSource(conn)
			}
		}
		return 0, fmt.Errorf("codegen: %s: input %s.%s not driven", pathPrefix, blockName, port)
	}

	for _, b := range net.Blocks() {
		path := pathPrefix + "." + b.Name()
		inResolve := func(port string) (int, error) { return blockInputSym(b.Name(), port) }
		if err := c.compileBlock(path, b, inResolve, blockOut[b.Name()], init, body, line); err != nil {
			return nil, err
		}
	}

	netOuts := map[string]int{}
	for _, conn := range net.Connections() {
		if conn.ToBlock != "" {
			continue
		}
		sym, err := resolveSource(conn)
		if err != nil {
			return nil, err
		}
		netOuts[conn.ToPort] = sym
	}
	return netOuts, nil
}

func (c *compiler) compileBlock(path string, b comdes.Block,
	inResolve func(string) (int, error), outSyms map[string]int,
	init, body *[]Instr, line int32) error {

	switch fb := b.(type) {
	case *comdes.BasicFB:
		return c.compileBasic(path, fb, inResolve, outSyms, body)
	case *comdes.StateMachineFB:
		return c.compileStateMachine(path, fb, inResolve, outSyms, init, body)
	case *comdes.CompositeFB:
		inner := fb.Network()
		netOuts, err := c.compileNetwork(path, inner, inResolve, init, body, line)
		if err != nil {
			return err
		}
		// Copy inner network outputs to the composite's output symbols.
		ln := c.prog.line("  %s: composite outputs", path)
		for _, p := range fb.Outputs() {
			src, ok := netOuts[p.Name]
			if !ok {
				return fmt.Errorf("codegen: composite %s: output %q not driven", path, p.Name)
			}
			*body = append(*body,
				Instr{Op: OpLoad, A: int32(src), Line: ln},
				Instr{Op: OpStore, A: int32(outSyms[p.Name]), Line: ln})
		}
		return nil
	case *comdes.ModalFB:
		return c.compileModal(path, fb, inResolve, outSyms, init, body)
	}
	return fmt.Errorf("codegen: uncompilable block type %T at %s", b, path)
}

func (c *compiler) compileBasic(path string, fb *comdes.BasicFB,
	inResolve func(string) (int, error), outSyms map[string]int, body *[]Instr) error {

	for _, p := range fb.Outputs() {
		node := fb.Formula(p.Name)
		ln := c.prog.line("  %s.%s = %s;", path, p.Name, node.String())
		if err := c.compileExpr(body, node, inResolve, fb.Params(), ln); err != nil {
			return fmt.Errorf("codegen: %s.%s: %w", path, p.Name, err)
		}
		*body = append(*body, Instr{Op: OpStore, A: int32(outSyms[p.Name]), Line: ln})
	}
	return nil
}

// compileExpr emits code leaving the expression value on the stack.
// Identifier resolution order matches the interpreter: parameters shadow
// inputs.
func (c *compiler) compileExpr(code *[]Instr, n expr.Node,
	inResolve func(string) (int, error), params map[string]value.Value, line int32) error {

	switch e := n.(type) {
	case *expr.Lit:
		*code = append(*code, Instr{Op: OpPush, A: c.prog.constIndex(e.Val), Line: line})
		return nil
	case *expr.Ident:
		if params != nil {
			if v, ok := params[e.Name]; ok {
				*code = append(*code, Instr{Op: OpPush, A: c.prog.constIndex(v), Line: line})
				return nil
			}
		}
		sym, err := inResolve(e.Name)
		if err != nil {
			return err
		}
		*code = append(*code, Instr{Op: OpLoad, A: int32(sym), Line: line})
		return nil
	case *expr.Unary:
		if err := c.compileExpr(code, e.X, inResolve, params, line); err != nil {
			return err
		}
		op := OpNeg
		if e.Op == "!" {
			op = OpNot
		}
		*code = append(*code, Instr{Op: op, Line: line})
		return nil
	case *expr.Binary:
		return c.compileBinary(code, e, inResolve, params, line)
	case *expr.Call:
		idx, ok := builtinIndex(e.Fn)
		if !ok {
			return fmt.Errorf("unknown builtin %q", e.Fn)
		}
		for _, a := range e.Args {
			if err := c.compileExpr(code, a, inResolve, params, line); err != nil {
				return err
			}
		}
		*code = append(*code, Instr{Op: OpCall, A: idx, B: int32(len(e.Args)), Line: line})
		return nil
	}
	return fmt.Errorf("uncompilable node %T", n)
}

func (c *compiler) compileBinary(code *[]Instr, e *expr.Binary,
	inResolve func(string) (int, error), params map[string]value.Value, line int32) error {

	// Short-circuit logic via jumps, preserving interpreter semantics
	// (the right operand is not evaluated when the left decides).
	if e.Op == "&&" || e.Op == "||" {
		if err := c.compileExpr(code, e.L, inResolve, params, line); err != nil {
			return err
		}
		jShort := len(*code)
		if e.Op == "&&" {
			*code = append(*code, Instr{Op: OpJZ, Line: line})
		} else {
			*code = append(*code, Instr{Op: OpJNZ, Line: line})
		}
		if err := c.compileExpr(code, e.R, inResolve, params, line); err != nil {
			return err
		}
		jShort2 := len(*code)
		if e.Op == "&&" {
			*code = append(*code, Instr{Op: OpJZ, Line: line})
		} else {
			*code = append(*code, Instr{Op: OpJNZ, Line: line})
		}
		short := value.B(e.Op == "||")
		long := value.B(e.Op == "&&")
		*code = append(*code, Instr{Op: OpPush, A: c.prog.constIndex(long), Line: line})
		jEnd := len(*code)
		*code = append(*code, Instr{Op: OpJmp, Line: line})
		target := int32(len(*code))
		(*code)[jShort].A = target
		(*code)[jShort2].A = target
		*code = append(*code, Instr{Op: OpPush, A: c.prog.constIndex(short), Line: line})
		(*code)[jEnd].A = int32(len(*code))
		return nil
	}

	if err := c.compileExpr(code, e.L, inResolve, params, line); err != nil {
		return err
	}
	if err := c.compileExpr(code, e.R, inResolve, params, line); err != nil {
		return err
	}
	var op Op
	switch e.Op {
	case "+":
		op = OpAdd
	case "-":
		op = OpSub
	case "*":
		op = OpMul
	case "/":
		op = OpDiv
	case "%":
		op = OpMod
	case "<":
		op = OpLT
	case "<=":
		op = OpLE
	case ">":
		op = OpGT
	case ">=":
		op = OpGE
	case "==":
		op = OpEQ
	case "!=":
		op = OpNE
	default:
		return fmt.Errorf("unknown operator %q", e.Op)
	}
	in := Instr{Op: op, Line: line}
	if isArith(op) {
		// Fold the operator byte into the instruction so the VM does not
		// re-derive it on every execution.
		in.A = int32(arithByte(op))
	}
	*code = append(*code, in)
	return nil
}

func (c *compiler) compileStateMachine(path string, fb *comdes.StateMachineFB,
	inResolve func(string) (int, error), outSyms map[string]int, init, body *[]Instr) error {

	stateSym, err := c.alloc(path+".__state", value.Int, comdes.BlockID(path))
	if err != nil {
		return err
	}
	initIdx, _ := fb.StateIndex(fb.Initial())
	lnInit := c.prog.line("  %s.state = %s; // initial", path, fb.Initial())
	*init = append(*init,
		Instr{Op: OpPush, A: c.prog.constIndex(value.I(int64(initIdx))), Line: lnInit},
		Instr{Op: OpStore, A: int32(stateSym), Line: lnInit})
	if c.opts.Instrument.StateEnter {
		tmpl := EventTemplate{
			Type: protocol.EvStateEnter, Source: path, Arg1: fb.Initial(),
			Element: comdes.StateID(path, fb.Initial()),
		}
		*init = append(*init, Instr{Op: OpEmit, A: c.prog.eventIndex(tmpl), Line: lnInit})
	}

	// Zero all outputs (interpreter semantics).
	lnZero := c.prog.line("  %s: outputs = 0;", path)
	for _, p := range fb.Outputs() {
		*body = append(*body,
			Instr{Op: OpPush, A: c.prog.constIndex(value.Zero(p.Kind)), Line: lnZero},
			Instr{Op: OpStore, A: int32(outSyms[p.Name]), Line: lnZero})
	}

	// compileAssigns writes entry/action maps in sorted order (matching
	// the deterministic interpreter iteration via sorted keys).
	compileAssigns := func(assigns map[string]expr.Node, ln int32) error {
		for _, name := range sortedAssignKeys(assigns) {
			if err := c.compileExpr(body, assigns[name], inResolve, nil, ln); err != nil {
				return err
			}
			*body = append(*body, Instr{Op: OpStore, A: int32(outSyms[name]), Line: ln})
		}
		return nil
	}

	var jmpsToDone []int
	var nextStatePatch int = -1
	for _, st := range fb.States() {
		idx, _ := fb.StateIndex(st.Name)
		ln := c.prog.line("  if (%s.state == %s) {", path, st.Name)
		if nextStatePatch >= 0 {
			(*body)[nextStatePatch].A = int32(len(*body))
		}
		*body = append(*body,
			Instr{Op: OpLoad, A: int32(stateSym), Line: ln},
			Instr{Op: OpPush, A: c.prog.constIndex(value.I(int64(idx))), Line: ln},
			Instr{Op: OpEQ, Line: ln})
		nextStatePatch = len(*body)
		*body = append(*body, Instr{Op: OpJZ, Line: ln})

		for _, tr := range fb.Outgoing(st.Name) {
			guard := tr.Guard
			lnT := c.prog.line("    if (%s) { state = %s; } // transition %s", guard.String(), tr.To, tr.Name)
			if err := c.compileExpr(body, guard, inResolve, nil, lnT); err != nil {
				return fmt.Errorf("codegen: %s transition %s: %w", path, tr.Name, err)
			}
			jSkip := len(*body)
			*body = append(*body, Instr{Op: OpJZ, Line: lnT})
			toIdx, _ := fb.StateIndex(tr.To)
			*body = append(*body,
				Instr{Op: OpPush, A: c.prog.constIndex(value.I(int64(toIdx))), Line: lnT},
				Instr{Op: OpStore, A: int32(stateSym), Line: lnT})
			if c.opts.Instrument.Transitions {
				tmpl := EventTemplate{
					Type: protocol.EvTransition, Source: path, Arg1: tr.From, Arg2: tr.To,
					Element: comdes.TransitionID(path, tr.Name),
				}
				*body = append(*body, Instr{Op: OpEmit, A: c.prog.eventIndex(tmpl), Line: lnT})
			}
			if c.opts.Instrument.StateEnter {
				tmpl := EventTemplate{
					Type: protocol.EvStateEnter, Source: path, Arg1: tr.To,
					Element: comdes.StateID(path, tr.To),
				}
				*body = append(*body, Instr{Op: OpEmit, A: c.prog.eventIndex(tmpl), Line: lnT})
			}
			// Entry of the target state, then transition actions.
			target := fb.States()[toIdx]
			lnE := c.prog.line("    // enter %s", tr.To)
			if err := compileAssigns(target.Entry, lnE); err != nil {
				return err
			}
			if err := compileAssigns(tr.Actions, lnE); err != nil {
				return err
			}
			jmpsToDone = append(jmpsToDone, len(*body))
			*body = append(*body, Instr{Op: OpJmp, Line: lnE})
			(*body)[jSkip].A = int32(len(*body))
		}
		// No transition fired: entry of the current state.
		lnStay := c.prog.line("    // stay in %s", st.Name)
		if err := compileAssigns(st.Entry, lnStay); err != nil {
			return err
		}
		jmpsToDone = append(jmpsToDone, len(*body))
		*body = append(*body, Instr{Op: OpJmp, Line: lnStay})
		c.prog.line("  }")
	}
	done := int32(len(*body))
	if nextStatePatch >= 0 {
		(*body)[nextStatePatch].A = done
	}
	for _, j := range jmpsToDone {
		(*body)[j].A = done
	}
	return nil
}

func sortedAssignKeys(m map[string]expr.Node) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (c *compiler) compileModal(path string, fb *comdes.ModalFB,
	inResolve func(string) (int, error), outSyms map[string]int, init, body *[]Instr) error {

	selSym, err := inResolve(fb.Selector())
	if err != nil {
		return fmt.Errorf("codegen: modal %s: %w", path, err)
	}

	// Zero outputs (interpreter writes every output each step).
	lnZero := c.prog.line("  %s: outputs = 0;", path)
	for _, p := range fb.Outputs() {
		*body = append(*body,
			Instr{Op: OpPush, A: c.prog.constIndex(value.Zero(p.Kind)), Line: lnZero},
			Instr{Op: OpStore, A: int32(outSyms[p.Name]), Line: lnZero})
	}

	// compileInner compiles one mode's block into the body and copies its
	// outputs into the modal outputs.
	compileInner := func(sub comdes.Block, subPath string) error {
		subOuts := map[string]int{}
		for _, p := range sub.Outputs() {
			sym, err := c.alloc(subPath+"."+p.Name, p.Kind, "")
			if err != nil {
				return err
			}
			subOuts[p.Name] = sym
		}
		// Inner inputs resolve against the modal block's inputs by name
		// (ModalFB.Step passes the whole input map through).
		if err := c.compileBlock(subPath, sub, inResolve, subOuts, init, body, 0); err != nil {
			return err
		}
		ln := c.prog.line("  %s -> %s outputs", subPath, path)
		for _, p := range fb.Outputs() {
			src, ok := subOuts[p.Name]
			if !ok {
				return fmt.Errorf("codegen: modal %s: mode block %s lacks output %q", path, sub.Name(), p.Name)
			}
			*body = append(*body,
				Instr{Op: OpLoad, A: int32(src), Line: ln},
				Instr{Op: OpStore, A: int32(outSyms[p.Name]), Line: ln})
		}
		return nil
	}

	var jmpsToDone []int
	var nextPatch = -1
	for _, md := range fb.Modes() {
		ln := c.prog.line("  if (%s == %d) { // mode", fb.Selector(), md.Selector)
		if nextPatch >= 0 {
			(*body)[nextPatch].A = int32(len(*body))
		}
		*body = append(*body,
			Instr{Op: OpLoad, A: int32(selSym), Line: ln},
			Instr{Op: OpPush, A: c.prog.constIndex(value.I(md.Selector)), Line: ln},
			Instr{Op: OpEQ, Line: ln})
		nextPatch = len(*body)
		*body = append(*body, Instr{Op: OpJZ, Line: ln})
		if err := compileInner(md.Block, fmt.Sprintf("%s.m%d.%s", path, md.Selector, md.Block.Name())); err != nil {
			return err
		}
		jmpsToDone = append(jmpsToDone, len(*body))
		*body = append(*body, Instr{Op: OpJmp, Line: ln})
	}
	if nextPatch >= 0 {
		(*body)[nextPatch].A = int32(len(*body))
	}
	if fb.Fallback() != nil {
		if err := compileInner(fb.Fallback(), path+".fallback."+fb.Fallback().Name()); err != nil {
			return err
		}
	}
	done := int32(len(*body))
	for _, j := range jmpsToDone {
		(*body)[j].A = done
	}
	return nil
}
