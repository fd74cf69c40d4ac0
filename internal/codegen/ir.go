// Package codegen is the model transformation stage of the MDD pipeline in
// Fig. 1 of the paper: it compiles a COMDES system model into executable
// code for the simulated embedded target (internal/target), replacing the
// C code generator of the COMDES Development Toolset.
//
// The output is a compact stack-machine IR plus everything a debugger
// needs around it:
//
//   - a symbol table assigning every signal, block output and state
//     variable a RAM address (what the JTAG watch engine reads),
//   - a pseudo-C listing with instruction↔line mapping (what the GDB/DDD
//     baseline debugger shows),
//   - debug info linking symbols and events back to model element ids
//     (what the GDM uses to animate the model),
//   - an optional *instrumentation pass* injecting command-interface emits
//     (the paper's active solution: "the application code itself sends out
//     commands by means of extra functional codes"),
//   - fault-injection options that deliberately mis-transform the model
//     (the paper's "implementation errors ... during model transformation"),
//     used by experiment E9.
//
// The code runs on Machine, whose RunBudget is the VM's one dispatch loop.
// Compile's last pass marks superinstruction sites in the IR (Instr.Fuse):
// the dominant output shapes — assignments, state-dispatch guards,
// initialisations and copies — each run as one dispatch when nothing could
// observe their interior, and as plain instructions otherwise.
package codegen

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/value"
)

// Op is an IR opcode.
type Op uint8

// The instruction set. Stack cells are value.Value so compiled semantics
// match the reference interpreter exactly (int/float distinction, typed
// comparisons).
const (
	OpNop   Op = iota
	OpPush     // push Consts[A]
	OpLoad     // push symbol A (decoded from RAM)
	OpStore    // pop into symbol A (encoded into RAM)
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpNot
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpJmp  // pc = A
	OpJZ   // pop; if falsy pc = A
	OpJNZ  // pop; if truthy pc = A
	OpCall // builtin Builtins[A] with B args (popped right-to-left)
	OpEmit // emit event template A; if B != 0 pop the event value
	OpHalt
)

var opNames = [...]string{
	"NOP", "PUSH", "LOAD", "STORE", "ADD", "SUB", "MUL", "DIV", "MOD",
	"NEG", "NOT", "LT", "LE", "GT", "GE", "EQ", "NE", "JMP", "JZ", "JNZ",
	"CALL", "EMIT", "HALT",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", o)
}

// Cycles returns the target CPU cost of the opcode — a simple in-order
// cost model (loads/stores and division are slow; the EMIT instrumentation
// is expensive because it builds a command frame).
func (o Op) Cycles() uint64 {
	switch o {
	case OpNop:
		return 1
	case OpPush:
		return 1
	case OpLoad, OpStore:
		return 4
	case OpAdd, OpSub, OpNeg, OpNot:
		return 1
	case OpMul:
		return 3
	case OpDiv, OpMod:
		return 12
	case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
		return 1
	case OpJmp, OpJZ, OpJNZ:
		return 2
	case OpCall:
		return 16
	case OpEmit:
		return EmitCycles
	default:
		return 1
	}
}

// EmitCycles is the CPU cost of one instrumentation emit (building and
// queueing a command frame). Experiment E7 measures the resulting active
// command interface overhead.
const EmitCycles = 60

// Instr is one IR instruction. Line indexes Program.Source for debug info.
// Fuse, set by Compile's last pass, marks the first instruction of a
// superinstruction site (see Fuse); it sits in what would otherwise be
// padding after Op, so an Instr stays 16 bytes, and it changes neither the
// instruction's meaning, its cost, nor its disassembly.
type Instr struct {
	Op   Op
	Fuse Fuse
	A    int32
	B    int32
	Line int32
}

// Fuse names the instruction shape that begins at a marked pc. The VM runs
// a marked site as one superinstruction (one dispatch, one batched
// Steps/Cycles update, no operand stack traffic) whenever nothing could
// observe its interior; otherwise it runs the marked instruction as its
// plain opcode (Machine.RunBudget states the rule).
type Fuse uint8

// The superinstruction shapes: the compiler's dominant output patterns.
const (
	FuseNone Fuse = iota
	// FuseLoadPushArithStore: Load src; Push const; Arith; Store dst —
	// the basic-block assignment dst = src <op> const.
	FuseLoadPushArithStore
	// FuseLoadPushCmpJZ: Load src; Push const; Cmp; JZ — the state and
	// guard dispatch shape.
	FuseLoadPushCmpJZ
	// FusePushStore: Push const; Store dst — initialisation and zeroing.
	FusePushStore
	// FuseLoadStore: Load src; Store dst — copies of composite outputs and
	// modal passthroughs.
	FuseLoadStore
)

func isArith(o Op) bool { return o >= OpAdd && o <= OpMod }
func isCmp(o Op) bool   { return o >= OpLT && o <= OpNE }

// markFused marks every pc where a superinstruction shape begins.
// Overlapping sites are all marked: a jump into the middle of one site
// enters at that pc's own mark (or plain instruction).
func markFused(code []Instr) {
	op := func(pc int) Op {
		if pc < len(code) {
			return code[pc].Op
		}
		return OpHalt + 1 // past the end: matches no shape
	}
	for pc := range code {
		f := FuseNone
		switch a, b, c, d := op(pc), op(pc+1), op(pc+2), op(pc+3); {
		case a == OpLoad && b == OpPush && isArith(c) && d == OpStore:
			f = FuseLoadPushArithStore
		case a == OpLoad && b == OpPush && isCmp(c) && d == OpJZ:
			f = FuseLoadPushCmpJZ
		case a == OpPush && b == OpStore:
			f = FusePushStore
		case a == OpLoad && b == OpStore:
			f = FuseLoadStore
		}
		code[pc].Fuse = f
	}
}

// Symbol is one RAM-resident variable.
type Symbol struct {
	Name    string
	Kind    value.Kind
	Addr    uint32
	Size    uint32
	Element string // model element id this symbol realises ("" if internal)
}

// SymbolTable allocates and resolves symbols. Addresses are assigned
// sequentially with 8-byte alignment from base 0.
type SymbolTable struct {
	syms   []Symbol
	byName map[string]int
	next   uint32
}

// NewSymbolTable creates an empty table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{byName: map[string]int{}}
}

// Alloc creates a symbol; duplicate names are an error.
func (st *SymbolTable) Alloc(name string, kind value.Kind, element string) (int, error) {
	if _, dup := st.byName[name]; dup {
		return 0, fmt.Errorf("codegen: duplicate symbol %q", name)
	}
	size := value.ByteSize(kind)
	if size == 0 {
		return 0, fmt.Errorf("codegen: symbol %q has unrepresentable kind %v", name, kind)
	}
	idx := len(st.syms)
	st.syms = append(st.syms, Symbol{Name: name, Kind: kind, Addr: st.next, Size: uint32(size), Element: element})
	st.next += 8 // keep 8-byte slots for alignment
	st.byName[name] = idx
	return idx, nil
}

// Index returns the symbol index for name.
func (st *SymbolTable) Index(name string) (int, bool) {
	i, ok := st.byName[name]
	return i, ok
}

// Sym returns the symbol at index i.
func (st *SymbolTable) Sym(i int) Symbol { return st.syms[i] }

// Len returns the number of symbols.
func (st *SymbolTable) Len() int { return len(st.syms) }

// All returns the symbols in allocation order.
func (st *SymbolTable) All() []Symbol { return st.syms }

// RAMSize returns the total RAM footprint in bytes.
func (st *SymbolTable) RAMSize() uint32 { return st.next }

// EventTemplate is a pre-built command the EMIT instruction sends; the
// stack top supplies the numeric value when WithValue is set.
type EventTemplate struct {
	Type      protocol.EventType
	Source    string
	Arg1      string
	Arg2      string
	Element   string // model element id for the GDM binder
	WithValue bool
}

// LatchPair couples a working symbol with its published symbol: the board
// copies Work -> Out at the task's deadline instant (output latching) and
// In -> Work at release (input latching).
type LatchPair struct {
	Work int
	Out  int
}

// Unit is the compiled form of one actor: its task timing, init and body
// code, and the latch plans.
type Unit struct {
	Name     string
	Period   uint64
	Offset   uint64
	Deadline uint64

	// Priority is the task's fixed scheduling priority (higher preempts
	// lower) under the board's preemptive policy; equal priorities run
	// FIFO. Ignored by the cooperative policy.
	Priority int

	// MissSym / PreemptSym index the kernel-maintained RAM counters
	// "<actor>.__misses" and "<actor>.__preempts": the firmware stores the
	// task's cumulative deadline misses and preemptions there, so the
	// passive JTAG interface and on-target breakpoint conditions can see
	// scheduling incidents without any code instrumentation.
	MissSym    int
	PreemptSym int

	Init []Instr // run once at boot
	Body []Instr // run every release

	// InLatch copies __io input symbols to latched input symbols at
	// release; OutLatch copies working outputs to published symbols at the
	// deadline.
	InLatch  []LatchPair
	OutLatch []LatchPair

	// SignalEvents maps published output symbol index -> event template
	// index, used by the instrumented board to emit EvSignal at the
	// deadline latch.
	SignalEvents map[int]int

	// InputSyms maps actor input port name -> __io symbol index (where the
	// environment and signal bindings write).
	InputSyms map[string]int
	// OutputSyms maps actor output port name -> published symbol index.
	OutputSyms map[string]int
}

// Program is the complete compiled artifact.
type Program struct {
	Name    string
	Consts  []value.Value
	Symbols *SymbolTable
	Units   []*Unit
	Events  []EventTemplate
	Source  []string // pseudo-C listing, one entry per line

	// Instrumented records whether the active command interface was woven
	// in (experiment E7 compares instrumented vs clean binaries).
	Instrumented bool

	// BusDropSym indexes the kernel-maintained "__busdrops" RAM counter
	// (cumulative frames this node lost on the time-triggered bus), or -1
	// when the program was compiled without Options.BusDrops. Like the
	// per-actor __misses/__preempts counters it is a plain symbol, so the
	// passive JTAG interface and on-target breakpoint conditions observe
	// bus loss at zero instrumentation cost.
	BusDropSym int
}

// Unit returns the named unit, or nil.
func (p *Program) Unit(name string) *Unit {
	for _, u := range p.Units {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// constIndex interns a constant.
func (p *Program) constIndex(v value.Value) int32 {
	for i, c := range p.Consts {
		if c.Kind() == v.Kind() && value.Equal(c, v) {
			return int32(i)
		}
	}
	p.Consts = append(p.Consts, v)
	return int32(len(p.Consts) - 1)
}

// eventIndex interns an event template.
func (p *Program) eventIndex(t EventTemplate) int32 {
	for i, e := range p.Events {
		if e == t {
			return int32(i)
		}
	}
	p.Events = append(p.Events, t)
	return int32(len(p.Events) - 1)
}

// line appends a listing line and returns its index.
func (p *Program) line(format string, args ...interface{}) int32 {
	p.Source = append(p.Source, fmt.Sprintf(format, args...))
	return int32(len(p.Source) - 1)
}

// Disassemble renders a unit's body for diagnostics.
func (p *Program) Disassemble(code []Instr) []string {
	out := make([]string, len(code))
	for i, in := range code {
		s := fmt.Sprintf("%4d  %-5s", i, in.Op)
		switch in.Op {
		case OpPush:
			s += fmt.Sprintf(" %v", p.Consts[in.A])
		case OpLoad, OpStore:
			s += " " + p.Symbols.Sym(int(in.A)).Name
		case OpJmp, OpJZ, OpJNZ:
			s += fmt.Sprintf(" ->%d", in.A)
		case OpCall:
			s += fmt.Sprintf(" %s/%d", builtinNames[in.A], in.B)
		case OpEmit:
			s += fmt.Sprintf(" %s %s", p.Events[in.A].Type, p.Events[in.A].Source)
		}
		out[i] = s
	}
	return out
}
