package codegen

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/value"
)

// builtinNames is the stable builtin index space shared by the compiler
// and the VM (OpCall.A indexes this slice).
var builtinNames = expr.Builtins()

// builtinFns resolves builtinNames once, so OpCall pays no name lookup.
var builtinFns = func() []func([]value.Value) (value.Value, error) {
	fns := make([]func([]value.Value) (value.Value, error), len(builtinNames))
	for i, n := range builtinNames {
		fns[i] = expr.Builtin(n)
	}
	return fns
}()

// builtinIdx inverts builtinNames once at package init; the compiler
// resolves call sites through it in O(1).
var builtinIdx = func() map[string]int32 {
	m := make(map[string]int32, len(builtinNames))
	for i, n := range builtinNames {
		m[n] = int32(i)
	}
	return m
}()

func builtinIndex(name string) (int32, bool) {
	i, ok := builtinIdx[name]
	return i, ok
}

// Bus is the VM's access to symbol storage. The target board implements it
// over simulated RAM; tests use an in-memory map.
type Bus interface {
	LoadSym(idx int) (value.Value, error)
	StoreSym(idx int, v value.Value) error
}

// EmitRef is one pending instrumentation event produced by OpEmit.
type EmitRef struct {
	Template int
	Value    value.Value
	HasValue bool
}

// BreakHook is the VM's attachment point for a target-resident breakpoint
// agent. It is consulted at the two instrumentation sites of the generated
// code — after every OpStore (a symbol just changed) and after every
// OpEmit (a model event was just raised) — and may halt the VM *at that
// instruction*, before the rest of the release body runs and before the
// deadline latch publishes anything. Each call reports the cycles spent
// evaluating armed predicates so debug overhead is charged to the target
// CPU like any other instruction.
type BreakHook interface {
	// CheckStore runs after symbol idx was written with v; hit halts the VM.
	CheckStore(idx int, v value.Value) (hit bool, cycles uint64)
	// CheckEmit runs after ref was queued; hit halts the VM.
	CheckEmit(ref EmitRef) (hit bool, cycles uint64)
}

// BreakCheckCycles is the target CPU cost of evaluating one armed
// breakpoint predicate at one check site (a compiled compare over RAM).
const BreakCheckCycles = 8

// ExecResult carries the outcome of one code run.
type ExecResult struct {
	Cycles uint64
	Steps  uint64
	Emits  []EmitRef

	// CheckCycles is the share of Cycles spent evaluating on-target
	// breakpoint predicates (debug overhead, included in Cycles).
	CheckCycles uint64
	// BreakPC is the instruction at which a BreakHook halted the run, or
	// -1 when the run completed (or errored) without a hit. The machine's
	// PC already points past it, so a later Run continues after the hit.
	BreakPC int
}

// maxSteps bounds runaway programs (compiler bugs), not legitimate code.
const maxSteps = 1_000_000

// Machine is a single-steppable VM instance over one code sequence. The
// code-level baseline debugger (internal/baseline) steps it instruction by
// instruction, exactly as GDB single-steps a target.
type Machine struct {
	Prog *Program
	Code []Instr
	Bus  Bus

	// Hook, when set, is the target-resident breakpoint agent consulted at
	// OpStore/OpEmit sites.
	Hook BreakHook

	PC    int
	stack []value.Value
	Res   ExecResult

	halted bool
}

// NewMachine prepares a VM run. The emit buffer is pre-sized to the code's
// OpEmit count, so a run never grows it and Reset keeps the capacity.
func NewMachine(p *Program, code []Instr, bus Bus) *Machine {
	m := &Machine{Prog: p, Code: code, Bus: bus, stack: make([]value.Value, 0, 16),
		Res: ExecResult{BreakPC: -1}}
	emits := 0
	for _, in := range code {
		if in.Op == OpEmit {
			emits++
		}
	}
	if emits > 0 {
		m.Res.Emits = make([]EmitRef, 0, emits)
	}
	return m
}

// Reset rewinds the machine for a fresh run of code, keeping the stack and
// emit buffers (capacity retained) so a pooled machine executes a new
// release without allocating.
func (m *Machine) Reset(code []Instr) {
	m.Code = code
	m.PC = 0
	m.halted = false
	m.stack = m.stack[:0]
	emits := m.Res.Emits[:0]
	m.Res = ExecResult{BreakPC: -1, Emits: emits}
}

// Done reports whether execution has finished.
func (m *Machine) Done() bool { return m.halted || m.PC >= len(m.Code) }

// Step executes one instruction: the RunBudget loop with a zero budget,
// which never fuses and stops after the first instruction. It returns true
// while execution continues and false once the program is done, a break
// hook halted it, or it failed.
func (m *Machine) Step() (bool, error) {
	if _, err := m.RunBudget(0); err != nil {
		return false, err
	}
	return m.Res.BreakPC < 0 && !m.Done(), nil
}

// Run steps the machine until the program completes, a runtime error
// aborts it, or the break hook halts it (Res.BreakPC >= 0). Calling Run
// again after a break continues from the instruction after the hit —
// the resume path of the target-resident debugger.
func (m *Machine) Run() (ExecResult, error) {
	return m.RunBudget(^uint64(0))
}

// opCycles tabulates Op.Cycles for the dispatch loop.
var opCycles = func() (t [256]uint64) {
	for i := range t {
		t[i] = Op(i).Cycles()
	}
	return t
}()

// RunBudget is Run bounded by a cycle budget: the machine executes
// instructions until the run has consumed at least budget cycles (the
// instruction in flight completes, so the total may overshoot by one
// instruction's cost), the program finishes, a runtime error aborts it, or
// the break hook halts it. This is the slice primitive of the preemptive
// board scheduler — a release interrupted at a budget boundary resumes at
// the next instruction on the next call.
//
// RunBudget is the VM's one dispatch loop. A pc that Compile marked
// (Instr.Fuse) runs as one superinstruction only when nothing could
// observe its interior: no break hook is armed, the budget left exceeds
// the cost of every instruction of the shape but the last (so no budget
// boundary lands inside it), and the step limit cannot trip inside it.
// Otherwise the marked instruction runs as its plain opcode. Both ways
// leave the same cycles, steps, PC, stack, bus and error text: every shape
// has a net-zero stack effect on success and on each error exit, which
// charges exactly the instructions the plain run would have executed and
// leaves the PC at the failing one.
func (m *Machine) RunBudget(budget uint64) (ExecResult, error) {
	m.Res.BreakPC = -1
	if m.halted {
		return m.Res, nil
	}
	code, bus, hook := m.Code, m.Bus, m.Hook
	var consts []value.Value
	if m.Prog != nil {
		consts = m.Prog.Consts
	}
	pc, stack := m.PC, m.stack
	steps, cycles := m.Res.Steps, m.Res.Cycles
	start := cycles
	var err error
loop:
	for pc < len(code) {
		if steps >= maxSteps {
			err = fmt.Errorf("codegen: step limit exceeded at pc %d", pc)
			break
		}
		in := &code[pc]
		if in.Fuse != FuseNone && hook == nil {
			if n, butLast := fuseSpan(code, pc); steps+n <= maxSteps && budget-(cycles-start) > butLast {
				switch in.Fuse {
				case FuseLoadPushArithStore:
					v, e := bus.LoadSym(int(in.A))
					if e != nil {
						steps, cycles, err = steps+1, cycles+4, e
						break loop
					}
					if v, e = value.Arith(arithOperator(code[pc+2]), v, consts[code[pc+1].A]); e != nil {
						pc += 2
						steps, cycles, err = steps+3, cycles+butLast, fmt.Errorf("codegen: pc %d: %w", pc, e)
						break loop
					}
					e = bus.StoreSym(int(code[pc+3].A), v)
					steps, cycles = steps+4, cycles+butLast+4
					if e != nil {
						pc, err = pc+3, e
						break loop
					}
					pc += 4
				case FuseLoadPushCmpJZ:
					v, e := bus.LoadSym(int(in.A))
					if e != nil {
						steps, cycles, err = steps+1, cycles+4, e
						break loop
					}
					var r bool
					switch cv, op := consts[code[pc+1].A], code[pc+2].Op; op {
					case OpEQ: // the state-dispatch guard, kept inline
						r = value.Equal(v, cv)
					case OpNE:
						r = !value.Equal(v, cv)
					default:
						r, e = compare(op, v, cv)
					}
					if e != nil {
						pc += 2
						steps, cycles, err = steps+3, cycles+butLast, fmt.Errorf("codegen: pc %d: %w", pc, e)
						break loop
					}
					steps, cycles = steps+4, cycles+butLast+2
					if r {
						pc += 4
					} else {
						pc = int(code[pc+3].A)
					}
				case FusePushStore:
					e := bus.StoreSym(int(code[pc+1].A), consts[in.A])
					steps, cycles = steps+2, cycles+butLast+4
					if e != nil {
						pc, err = pc+1, e
						break loop
					}
					pc += 2
				case FuseLoadStore:
					v, e := bus.LoadSym(int(in.A))
					if e != nil {
						steps, cycles, err = steps+1, cycles+4, e
						break loop
					}
					e = bus.StoreSym(int(code[pc+1].A), v)
					steps, cycles = steps+2, cycles+butLast+4
					if e != nil {
						pc, err = pc+1, e
						break loop
					}
					pc += 2
				}
				if cycles-start >= budget {
					break
				}
				continue
			}
		}

		steps++
		cycles += opCycles[in.Op]
		next := pc + 1
		switch in.Op {
		case OpNop:
		case OpPush:
			stack = append(stack, consts[in.A])
		case OpLoad:
			v, e := bus.LoadSym(int(in.A))
			if e != nil {
				err = e
				break loop
			}
			stack = append(stack, v)
		case OpStore:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e := bus.StoreSym(int(in.A), v); e != nil {
				err = e
				break loop
			}
			if hook != nil {
				hit, cost := hook.CheckStore(int(in.A), v)
				cycles += cost
				m.Res.CheckCycles += cost
				if hit {
					m.Res.BreakPC, pc = pc, next
					break loop
				}
			}
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			n := len(stack)
			r, e := value.Arith(arithOperator(*in), stack[n-2], stack[n-1])
			stack = stack[:n-2]
			if e != nil {
				err = fmt.Errorf("codegen: pc %d: %w", pc, e)
				break loop
			}
			stack = append(stack, r)
		case OpNeg:
			n := len(stack)
			r, e := value.Neg(stack[n-1])
			stack = stack[:n-1]
			if e != nil {
				err = fmt.Errorf("codegen: pc %d: %w", pc, e)
				break loop
			}
			stack = append(stack, r)
		case OpNot:
			stack[len(stack)-1] = value.B(!stack[len(stack)-1].Bool())
		case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
			n := len(stack)
			r, e := compare(in.Op, stack[n-2], stack[n-1])
			stack = stack[:n-2]
			if e != nil {
				err = fmt.Errorf("codegen: pc %d: %w", pc, e)
				break loop
			}
			stack = append(stack, value.B(r))
		case OpJmp:
			next = int(in.A)
		case OpJZ, OpJNZ:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.Bool() == (in.Op == OpJNZ) {
				next = int(in.A)
			}
		case OpCall:
			// The top argc stack cells already sit in call order — pass them
			// as an in-place window instead of copying into a fresh slice.
			base := len(stack) - int(in.B)
			r, e := builtinFns[in.A](stack[base:])
			stack = stack[:base]
			if e != nil {
				err = fmt.Errorf("codegen: pc %d: %w", pc, e)
				break loop
			}
			stack = append(stack, r)
		case OpEmit:
			ref := EmitRef{Template: int(in.A)}
			if in.B != 0 {
				ref.Value, ref.HasValue = stack[len(stack)-1], true
				stack = stack[:len(stack)-1]
			}
			m.Res.Emits = append(m.Res.Emits, ref)
			if hook != nil {
				hit, cost := hook.CheckEmit(ref)
				cycles += cost
				m.Res.CheckCycles += cost
				if hit {
					m.Res.BreakPC, pc = pc, next
					break loop
				}
			}
		case OpHalt:
			m.halted = true
			break loop
		default:
			err = fmt.Errorf("codegen: unknown opcode %v at pc %d", in.Op, pc)
			break loop
		}
		pc = next
		if cycles-start >= budget {
			break
		}
	}
	m.PC, m.stack = pc, stack
	m.Res.Steps, m.Res.Cycles = steps, cycles
	return m.Res, err
}

// fuseSpan returns the instruction count of the superinstruction marked at
// pc and the cycle cost of all its instructions but the last.
func fuseSpan(code []Instr, pc int) (n, butLast uint64) {
	switch code[pc].Fuse {
	case FuseLoadPushArithStore:
		return 4, opCycles[OpLoad] + opCycles[OpPush] + opCycles[code[pc+2].Op]
	case FuseLoadPushCmpJZ:
		return 4, opCycles[OpLoad] + opCycles[OpPush] + opCycles[OpEQ]
	case FusePushStore:
		return 2, opCycles[OpPush]
	default: // FuseLoadStore
		return 2, opCycles[OpLoad]
	}
}

// compare evaluates a comparison opcode (OpLT..OpNE) on a and b.
func compare(op Op, a, b value.Value) (bool, error) {
	switch op {
	case OpEQ:
		return value.Equal(a, b), nil
	case OpNE:
		return !value.Equal(a, b), nil
	}
	c, err := value.Compare(a, b)
	switch op {
	case OpLT:
		return c < 0, err
	case OpLE:
		return c <= 0, err
	case OpGT:
		return c > 0, err
	default:
		return c >= 0, err
	}
}

// Exec runs one code sequence to completion on the bus, returning the
// cycle count and the instrumentation events raised. Runtime errors
// (division by zero, type errors) abort execution — the same contract as
// the reference interpreter.
func Exec(p *Program, code []Instr, bus Bus) (ExecResult, error) {
	return ExecHook(p, code, bus, nil)
}

// ExecHook is Exec with a target-resident break hook attached; the run may
// therefore stop early with Res.BreakPC >= 0 (the firmware suspends the
// release and keeps the Machine for resumption).
func ExecHook(p *Program, code []Instr, bus Bus, hook BreakHook) (ExecResult, error) {
	m := NewMachine(p, code, bus)
	m.Hook = hook
	return m.Run()
}

// arithOperator is the value.Arith operator byte of an arithmetic
// instruction. The compiler folds it into A; hand-assembled code (A == 0)
// still derives it from the opcode.
func arithOperator(in Instr) byte {
	if ab := byte(in.A); ab != 0 {
		return ab
	}
	return arithByte(in.Op)
}

func arithByte(op Op) byte {
	switch op {
	case OpAdd:
		return '+'
	case OpSub:
		return '-'
	case OpMul:
		return '*'
	case OpDiv:
		return '/'
	default:
		return '%'
	}
}

// MapBus is a simple Bus over a value slice, used by tests and the
// code-level baseline experiments (no RAM encoding).
type MapBus struct {
	Table *SymbolTable
	Vals  []value.Value
}

// NewMapBus creates a bus with zero-initialised slots.
func NewMapBus(st *SymbolTable) *MapBus {
	vals := make([]value.Value, st.Len())
	for i := range vals {
		vals[i] = value.Zero(st.Sym(i).Kind)
	}
	return &MapBus{Table: st, Vals: vals}
}

// LoadSym implements Bus.
func (m *MapBus) LoadSym(idx int) (value.Value, error) {
	if idx < 0 || idx >= len(m.Vals) {
		return value.Value{}, fmt.Errorf("codegen: symbol index %d out of range", idx)
	}
	return m.Vals[idx], nil
}

// StoreSym implements Bus.
func (m *MapBus) StoreSym(idx int, v value.Value) error {
	if idx < 0 || idx >= len(m.Vals) {
		return fmt.Errorf("codegen: symbol index %d out of range", idx)
	}
	cv, err := value.Convert(v, m.Table.Sym(idx).Kind)
	if err != nil {
		return err
	}
	m.Vals[idx] = cv
	return nil
}

// Threaded was the closure-chain compiled form of a code sequence.
//
// Deprecated: the VM has one dispatch loop and Compile marks fused sites
// in the IR (Instr.Fuse); Thread returns nil and SetThreaded does nothing.
type Threaded struct{}

// Thread returns nil.
//
// Deprecated: see Threaded.
func Thread(*Program, []Instr) *Threaded { return nil }

// SetThreaded does nothing.
//
// Deprecated: see Threaded.
func (m *Machine) SetThreaded(*Threaded) {}
