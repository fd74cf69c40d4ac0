package target

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/dtm"
	"repro/internal/jtag"
	"repro/internal/protocol"
	"repro/internal/serial"
	"repro/internal/value"
)

// Defaults for Config zero values.
const (
	// DefaultBaud is the RS-232 line rate of the paper's prototype setup.
	DefaultBaud = 115200
	// DefaultCPUHz models a small ARM-class embedded core.
	DefaultCPUHz = 100_000_000
	// DefaultIDCode is the TAP IDCODE reported over JTAG ("GDM1").
	DefaultIDCode = 0x47444D31
	// DefaultCtxSwitchCycles is the CPU cost of one context switch under
	// the preemptive scheduling policy (register save/restore plus the
	// ready-queue decision of a small RTOS kernel).
	DefaultCtxSwitchCycles = 40
)

// Backend selects the VM dispatch backend the board runs generated code
// on. Both backends are bit-identical in cycle accounting, preemption
// boundaries and breakpoint semantics; the threaded one is simply faster.
type Backend uint8

const (
	// BackendAuto uses the direct-threaded compiled form whenever the
	// program carries one (codegen.Compile builds it eagerly) — the
	// default.
	BackendAuto Backend = iota
	// BackendThreaded is Auto under a name that states the intent.
	BackendThreaded
	// BackendInterp forces the per-instruction Step interpreter — the
	// escape hatch (gmdf -backend interp).
	BackendInterp
)

// String names the backend ("threaded" / "interp" / "auto").
func (bk Backend) String() string {
	switch bk {
	case BackendThreaded:
		return "threaded"
	case BackendInterp:
		return "interp"
	default:
		return "auto"
	}
}

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "threaded", "compiled":
		return BackendThreaded, nil
	case "interp", "interpreter":
		return BackendInterp, nil
	}
	return BackendAuto, fmt.Errorf("target: unknown backend %q (auto|threaded|interp)", s)
}

// Config carries the physical board parameters.
type Config struct {
	// Baud is the UART line rate of the active command interface
	// (default 115200).
	Baud int
	// CPUHz converts VM cycles to virtual execution time
	// (default 100 MHz).
	CPUHz uint64
	// IDCode is the JTAG device id returned by the TAP.
	IDCode uint32
	// Sched selects the task scheduling policy: dtm.Cooperative (default,
	// every release runs to completion at its release instant) or
	// dtm.FixedPriority (preemptive: releases are resumable jobs scheduled
	// by TaskSpec.Priority in budgeted VM slices; a higher-priority
	// release preempts the running body at an instruction boundary).
	Sched dtm.Policy
	// CtxSwitchCycles is the CPU cost charged per context switch under the
	// FixedPriority policy (default DefaultCtxSwitchCycles).
	CtxSwitchCycles uint64
	// RateMonotonic, when set, derives task priorities from periods at
	// boot (dtm.AssignRateMonotonic: shorter period = higher priority),
	// overriding any hand-numbered TaskSpec priorities. Boot fails on a
	// period tie with differing deadlines, where rate order is ambiguous.
	RateMonotonic bool
	// Bindings are the system's labelled signal routes; the board delivers
	// a published output to its consumer's input at the producer's
	// deadline instant (state-message communication). Bindings whose
	// consumer lives on another board are handed to the OnPublish hook.
	Bindings []comdes.Binding
	// Backend selects the VM dispatch backend (default BackendAuto: the
	// direct-threaded compiled form when the program carries one).
	Backend Backend
}

// Board is one simulated embedded node executing a compiled program.
type Board struct {
	// Name is the node name ("main" for single-board systems).
	Name string
	// Prog is the program loaded on the board.
	Prog *codegen.Program
	// Link is the RS-232 line; PortA is the target side, PortB the host.
	Link *serial.Link
	// TAP is the on-chip JTAG port, wired to the board RAM — the passive
	// command interface reads it at zero target cost.
	TAP *jtag.TAP

	// PreLatch, when set, runs at every task release before input
	// latching — the environment hook where a plant model supplies sensor
	// values via WriteInput and consumes actuators via ReadOutput.
	PreLatch func(now uint64, actor string)
	// OnPublish, when set, observes every published output at its deadline
	// instant. The cluster uses it to route cross-node bindings.
	OnPublish func(now uint64, actor, port string, v value.Value)
	// OnInput, when set, observes every successful WriteInput — the
	// checkpoint recorder's input log hooks here to capture environment
	// stimuli for deterministic replay.
	OnInput func(now uint64, actor, port string, v value.Value)

	cfg      Config
	kernel   *dtm.Kernel
	sched    *dtm.Scheduler
	ram      []byte
	slots    []symSlot    // per-symbol kind/addr, flattened from Prog.Symbols
	portA    *serial.Port // target-side UART endpoint
	portB    *serial.Port // host-side UART endpoint
	dec      protocol.Decoder
	units    map[string]*codegen.Unit
	exec     map[string]*unitExec        // per-unit pooled VM state
	outPorts map[string][]string         // unit -> sorted output port names
	routes   map[string][]comdes.Binding // producer actor -> its bindings
	pubSyms  map[string][]string         // unit -> symbol names written at its deadline latch
	seq      uint16
	cycles   uint64
	instr    uint64
	lastErr  error

	// useThreaded records the resolved Config.Backend choice: attach the
	// program's direct-threaded form to every machine (false = forced
	// interpreter).
	useThreaded bool

	// agent is the target-resident breakpoint/step agent; susp holds a
	// release interrupted mid-body by it (resumed by Resume/InResume).
	agent *breakAgent
	susp  *suspended
	// deferred are made-up deadline latches (skipped while suspended at a
	// breakpoint) awaiting their original instants — explicit records so a
	// snapshot can carry them.
	deferred []*deferredLatch
	// dropsSeen is the last FramesDropped count reported over the wire.
	dropsSeen uint64
	// wire is the reused frame encode buffer; the UART copies each frame
	// on Send, so the next frame may overwrite it.
	wire []byte

	// preRelease is the cluster's chance to refresh network-fed inputs
	// before the user PreLatch hook and input latching run.
	preRelease func(now uint64, actor string)
}

// NewBoard boots a program on a fresh board: RAM is allocated and zeroed,
// the TAP is wired, every unit's init code runs (emitting any instrumented
// boot events after the Hello announcement), and the task schedule is
// started. kernel may be nil for a standalone board; a cluster passes its
// shared kernel so all nodes advance on one virtual clock.
func NewBoard(name string, prog *codegen.Program, cfg Config, kernel *dtm.Kernel) (*Board, error) {
	if prog == nil {
		return nil, fmt.Errorf("target: nil program")
	}
	if cfg.Baud == 0 {
		cfg.Baud = DefaultBaud
	}
	if cfg.CPUHz == 0 {
		cfg.CPUHz = DefaultCPUHz
	}
	if cfg.IDCode == 0 {
		cfg.IDCode = DefaultIDCode
	}
	if cfg.CtxSwitchCycles == 0 {
		cfg.CtxSwitchCycles = DefaultCtxSwitchCycles
	}
	link, err := serial.NewLink(cfg.Baud)
	if err != nil {
		return nil, err
	}
	if kernel == nil {
		kernel = dtm.NewKernel()
	}
	b := &Board{
		Name:     name,
		Prog:     prog,
		Link:     link,
		cfg:      cfg,
		kernel:   kernel,
		sched:    dtm.NewScheduler(kernel),
		ram:      make([]byte, prog.Symbols.RAMSize()),
		portA:    link.PortA(),
		portB:    link.PortB(),
		units:    map[string]*codegen.Unit{},
		exec:     map[string]*unitExec{},
		outPorts: map[string][]string{},
		routes:   map[string][]comdes.Binding{},
		pubSyms:  map[string][]string{},
	}
	b.useThreaded = cfg.Backend != BackendInterp
	b.slots = make([]symSlot, prog.Symbols.Len())
	for i := range b.slots {
		sym := prog.Symbols.Sym(i)
		b.slots[i] = symSlot{kind: sym.Kind, addr: sym.Addr}
	}
	b.agent = &breakAgent{b: b}
	b.TAP = jtag.NewTAP(cfg.IDCode, boardRAM{b}, nil)
	for _, bind := range cfg.Bindings {
		b.routes[bind.FromActor] = append(b.routes[bind.FromActor], bind)
	}

	b.sched.Policy = cfg.Sched
	if cfg.Sched == dtm.FixedPriority {
		b.sched.CtxSwitchNs = b.cyclesToNs(cfg.CtxSwitchCycles)
		b.sched.OnCtxSwitch = func(now uint64, t *dtm.Task) { b.cycles += cfg.CtxSwitchCycles }
		b.sched.OnPreempt = b.preempted
		b.sched.OnDeadlineMiss = b.missed
	}

	for _, u := range prog.Units {
		if _, dup := b.units[u.Name]; dup {
			return nil, fmt.Errorf("target: duplicate unit %q", u.Name)
		}
		b.units[u.Name] = u
		b.exec[u.Name] = &unitExec{u: u}
		ports := make([]string, 0, len(u.OutputSyms))
		for p := range u.OutputSyms {
			ports = append(ports, p)
		}
		sort.Strings(ports)
		b.outPorts[u.Name] = ports
	}

	// Boot: announce the target, then run every unit's init code.
	b.send(protocol.Event{Type: protocol.EvHello, Time: kernel.Now(), Source: prog.Name})
	for _, u := range prog.Units {
		im := codegen.NewMachine(prog, u.Init, b)
		if b.useThreaded {
			im.SetThreaded(u.ThreadedInit)
		}
		res, err := im.Run()
		if err != nil {
			return nil, fmt.Errorf("target: %s init: %w", u.Name, err)
		}
		b.account(res)
		b.flushEmits(kernel.Now(), res.Emits)
	}

	for _, u := range prog.Units {
		unit := u
		ue := b.exec[u.Name]
		// Symbols the deadline latch writes (published outputs plus local
		// binding targets): the indexed breakpoint check at the publish
		// site evaluates the predicates referencing them.
		var pubs []string
		for _, lp := range unit.OutLatch {
			pubs = append(pubs, prog.Symbols.Sym(lp.Out).Name)
		}
		for _, bind := range b.routes[unit.Name] {
			if dst, ok := b.units[bind.ToActor]; ok {
				if in, ok := dst.InputSyms[bind.ToPort]; ok {
					pubs = append(pubs, prog.Symbols.Sym(in).Name)
				}
			}
		}
		b.pubSyms[unit.Name] = pubs
		if err := b.sched.AddTask(&dtm.Task{
			Name:     unit.Name,
			Period:   unit.Period,
			Offset:   unit.Offset,
			Deadline: unit.Deadline,
			Priority: unit.Priority,
			Latch: func(now uint64) map[string]value.Value {
				b.release(unit, now)
				return nil
			},
			Execute: func(now uint64, _ map[string]value.Value) (map[string]value.Value, uint64, error) {
				cost, err := b.execute(unit, now)
				return nil, cost, err
			},
			Slice: func(release, now, budgetNs uint64) (uint64, bool, error) {
				return b.sliceUnit(ue, release, now, budgetNs)
			},
			Output: func(now uint64, _ map[string]value.Value) {
				b.deadline(unit, now)
			},
		}); err != nil {
			return nil, err
		}
	}
	if cfg.RateMonotonic {
		if err := b.sched.AssignRateMonotonic(); err != nil {
			return nil, err
		}
	}
	b.sched.Start()
	return b, nil
}

// unitExec is the per-unit execution state: a small pool of reusable VM
// machines (stacks and emit buffers retained across releases) plus the
// machine of the release currently in flight under the preemptive policy.
type unitExec struct {
	u    *codegen.Unit
	idle []*codegen.Machine

	m      *codegen.Machine   // machine of the active (sliced) release
	rel    uint64             // its release instant
	active bool               // a release is mid-body across slices
	prev   codegen.ExecResult // portion already accounted and flushed
}

// acquire returns a machine reset to the unit body, reusing a pooled one
// when available.
func (ue *unitExec) acquire(b *Board) *codegen.Machine {
	if n := len(ue.idle); n > 0 {
		m := ue.idle[n-1]
		ue.idle = ue.idle[:n-1]
		m.Reset(ue.u.Body)
		return m
	}
	m := codegen.NewMachine(b.Prog, ue.u.Body, b)
	if b.useThreaded {
		m.SetThreaded(ue.u.ThreadedBody)
	}
	return m
}

// recycle returns a finished machine to the pool.
func (ue *unitExec) recycle(m *codegen.Machine) {
	m.Hook = nil
	ue.idle = append(ue.idle, m)
}

// RunFor advances the board by ns nanoseconds of virtual time, executing
// every task release and deadline latch that falls in the window, then
// services pending host instructions. While halted, time (and the UART
// line) still advances but no task code executes. On a cluster board the
// shared kernel — and therefore every sibling board — advances too.
func (b *Board) RunFor(ns uint64) {
	end := b.kernel.Now() + ns
	b.kernel.RunUntil(end)
	b.sync(end)
}

// Now returns the board's virtual time in nanoseconds.
func (b *Board) Now() uint64 { return b.kernel.Now() }

// Backend reports the dispatch backend release bodies actually run on:
// "threaded" only when the compiled form is both selected and present for
// every unit, otherwise "interp" — a program that cannot be threaded never
// silently reports the fast path.
func (b *Board) Backend() string {
	if !b.useThreaded {
		return "interp"
	}
	for _, u := range b.Prog.Units {
		if u.ThreadedBody == nil {
			return "interp"
		}
	}
	return "threaded"
}

// Cycles returns the total CPU cycles executed since boot.
func (b *Board) Cycles() uint64 { return b.cycles }

// InstrumentationCycles returns the cycles spent on the active command
// interface (emit instructions and deadline signal frames) — zero for
// clean builds, which is the paper's passive-solution claim.
func (b *Board) InstrumentationCycles() uint64 { return b.instr }

// HostPort returns the host-side end of the RS-232 link (what the GDM
// server reads events from and writes instructions to).
func (b *Board) HostPort() *serial.Port { return b.portB }

// Halt implements engine.TargetControl: task releases are suspended (the
// release rhythm is kept, so Resume stays on the period grid). Outputs
// already latched keep their deadline instants, matching a CPU halted
// between task instances. Halt is idempotent; a board already suspended
// at a breakpoint simply stays halted.
func (b *Board) Halt() { b.sched.Halt() }

// Resume implements engine.TargetControl. If the board was suspended
// mid-release by the breakpoint agent, the interrupted body runs to
// completion first (it may immediately hit another breakpoint and
// re-suspend) and the skipped deadline latch is made up: at the original
// deadline instant when that is still in the future, otherwise
// immediately — a late publish, as on a real halted CPU.
func (b *Board) Resume() {
	b.sched.Resume()
	b.runSuspended()
}

// Halted implements engine.TargetControl.
func (b *Board) Halted() bool { return b.sched.Halted() }

// Err returns the first task execution error, if any run of generated
// code aborted (division by zero and friends).
func (b *Board) Err() error {
	if b.lastErr != nil {
		return b.lastErr
	}
	for _, t := range b.sched.Tasks() {
		if t.LastError != nil {
			return fmt.Errorf("target: task %s: %w", t.Name, t.LastError)
		}
	}
	return nil
}

// DeadlineMisses sums deadline overruns across all tasks.
func (b *Board) DeadlineMisses() uint64 {
	var n uint64
	for _, t := range b.sched.Tasks() {
		n += t.DeadlineMisses
	}
	return n
}

// Preemptions sums preemptions across all tasks (FixedPriority policy).
func (b *Board) Preemptions() uint64 {
	var n uint64
	for _, t := range b.sched.Tasks() {
		n += t.Preemptions
	}
	return n
}

// CtxSwitches returns the charged context switches (FixedPriority policy).
func (b *Board) CtxSwitches() uint64 { return b.sched.CtxSwitches }

// Tasks exposes the scheduler's task table (release/miss/preemption and
// response-time accounting per actor).
func (b *Board) Tasks() []*dtm.Task { return b.sched.Tasks() }

// ResponseTimeAnalysis runs the scheduler's response-time analysis over
// the board's task set with its configured context-switch cost, so a
// campaign can compare each variant's observed response times against
// analytic bounds computed under that variant's priority assignment.
func (b *Board) ResponseTimeAnalysis() ([]dtm.RTAResult, error) {
	return b.sched.ResponseTimeAnalysis()
}

// WriteInput writes a value to an actor input port (the environment's
// sensor path); it lands in the __io symbol and is latched at the actor's
// next release.
func (b *Board) WriteInput(actor, port string, v value.Value) error {
	u, ok := b.units[actor]
	if !ok {
		return fmt.Errorf("target: unknown actor %q", actor)
	}
	idx, ok := u.InputSyms[port]
	if !ok {
		return fmt.Errorf("target: actor %s has no input %q", actor, port)
	}
	if err := b.StoreSym(idx, v); err != nil {
		return err
	}
	if len(b.agent.bps) > 0 {
		// Environment writes bypass the VM's store hook; predicates over
		// the __io symbol fire at the next check site.
		b.agent.touch(b.Prog.Symbols.Sym(idx).Name)
	}
	if b.OnInput != nil {
		b.OnInput(b.kernel.Now(), actor, port, v)
	}
	return nil
}

// ReadOutput reads an actor's published output port (the value latched at
// the most recent deadline instant).
func (b *Board) ReadOutput(actor, port string) (value.Value, error) {
	u, ok := b.units[actor]
	if !ok {
		return value.Value{}, fmt.Errorf("target: unknown actor %q", actor)
	}
	idx, ok := u.OutputSyms[port]
	if !ok {
		return value.Value{}, fmt.Errorf("target: actor %s has no output %q", actor, port)
	}
	return b.LoadSym(idx)
}

// String summarises the board state in one line.
func (b *Board) String() string {
	return fmt.Sprintf("board %s: t=%dns cycles=%d (instr %d) tasks=%d halted=%v",
		b.Name, b.Now(), b.cycles, b.instr, len(b.units), b.Halted())
}

// WriteString writes a multi-line status report (clock, cycle split, UART
// statistics and the per-task release/miss table) to w.
func (b *Board) WriteString(w io.Writer) (int, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", b.String())
	stats := b.portA.Stats()
	fmt.Fprintf(&sb, "  uart: %d baud, %d bytes sent, %d dropped\n", b.Link.Baud(), stats.Bytes, stats.Dropped)
	fmt.Fprintf(&sb, "  ram: %d bytes, %d symbols\n", len(b.ram), b.Prog.Symbols.Len())
	for _, t := range b.sched.Tasks() {
		fmt.Fprintf(&sb, "  task %-12s period=%dns releases=%d misses=%d\n",
			t.Name, t.Period, t.Releases, t.DeadlineMisses)
	}
	return io.WriteString(w, sb.String())
}
