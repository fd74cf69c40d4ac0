package target

import (
	"fmt"
	"io"
	"maps"
	"slices"
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

// Config carries the physical board parameters.
type Config struct {
	// Baud is the UART line rate of the active command interface
	// (default 115200).
	Baud int
	// CPUHz converts VM cycles to virtual execution time
	// (default 100 MHz).
	CPUHz uint64
	// Sched selects the task scheduling policy: dtm.Cooperative (default,
	// every release runs to completion at its release instant) or
	// dtm.FixedPriority (preemptive: releases are resumable jobs scheduled
	// by TaskSpec.Priority in budgeted VM slices; a higher-priority
	// release preempts the running body at an instruction boundary).
	Sched dtm.Policy
	// Bindings are the system's labelled signal routes; the board delivers
	// a published output to its consumer's input at the producer's
	// deadline instant (state-message communication). Bindings whose
	// consumer lives on another board are left to the cluster, which
	// routes them over its network.
	Bindings []comdes.Binding
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
	// OnInput, when set, observes every successful input write: a
	// WriteInput, and on a cluster every bus delivery and re-latch from
	// the node's inbox. The checkpoint recorder's logs hook here.
	OnInput func(now uint64, actor, port string, v value.Value)

	cfg     Config
	kernel  *dtm.Kernel
	sched   *dtm.Scheduler
	ram     []byte
	slots   []symSlot    // per-symbol kind/addr, flattened from Prog.Symbols
	portA   *serial.Port // target-side UART endpoint
	portB   *serial.Port // host-side UART endpoint
	dec     protocol.Decoder
	exec    map[string]*unitExec // per-unit task, plans and pooled VM state
	seq     uint16
	cycles  uint64
	instr   uint64
	lastErr error

	// agent is the target-resident breakpoint/step agent. A release it
	// interrupts mid-body is a job parked in the scheduler, under either
	// policy; its machine stays with its unit (unitExec.m).
	agent *breakAgent
	// dropsSeen is the last FramesDropped count reported over the wire.
	dropsSeen uint64
	// wire is the reused frame encode buffer; the UART copies each frame
	// on Send, so the next frame may overwrite it.
	wire []byte

	// On a cluster board, inbox is the node's view of the network's
	// signals, which each release re-latches its off-node inputs from
	// (unitExec.netIn), and sender is the node's handle for publishing to
	// other nodes (pubPort.remote). Both are nil on a standalone board.
	inbox  *dtm.Store
	sender *dtm.Sender
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
	link, err := serial.NewLink(cfg.Baud)
	if err != nil {
		return nil, err
	}
	if kernel == nil {
		kernel = dtm.NewKernel()
	}
	b := &Board{
		Name:   name,
		Prog:   prog,
		Link:   link,
		cfg:    cfg,
		kernel: kernel,
		sched:  dtm.NewScheduler(kernel),
		ram:    make([]byte, prog.Symbols.RAMSize()),
		portA:  link.PortA(),
		portB:  link.PortB(),
		exec:   map[string]*unitExec{},
	}
	b.slots = make([]symSlot, prog.Symbols.Len())
	for i := range b.slots {
		sym := prog.Symbols.Sym(i)
		b.slots[i] = symSlot{kind: sym.Kind, addr: sym.Addr}
	}
	b.agent = &breakAgent{b: b}
	b.TAP = jtag.NewTAP(DefaultIDCode, boardRAM{b})

	b.sched.Policy = cfg.Sched
	if cfg.Sched == dtm.FixedPriority {
		b.sched.CtxSwitchNs = b.cyclesToNs(DefaultCtxSwitchCycles)
		b.sched.OnCtxSwitch = func(now uint64, t *dtm.Task) { b.cycles += DefaultCtxSwitchCycles }
		b.sched.OnPreempt = b.preempted
		b.sched.OnDeadlineMiss = b.missed
	}

	for _, u := range prog.Units {
		if _, dup := b.exec[u.Name]; dup {
			return nil, fmt.Errorf("target: duplicate unit %q", u.Name)
		}
		b.exec[u.Name] = &unitExec{u: u}
	}
	for _, ue := range b.exec {
		ue.plan = b.planDeadline(ue.u, cfg.Bindings)
	}

	// Boot: announce the target, then run every unit's init code.
	b.send(protocol.Event{Type: protocol.EvHello, Time: kernel.Now(), Source: prog.Name})
	for _, u := range prog.Units {
		res, err := codegen.NewMachine(prog, u.Init, b).Run()
		if err != nil {
			return nil, fmt.Errorf("target: %s init: %w", u.Name, err)
		}
		b.account(res)
		b.flushEmits(kernel.Now(), res.Emits)
	}

	for _, u := range prog.Units {
		ue := b.exec[u.Name]
		ue.task = &dtm.Task{
			Name:     u.Name,
			Period:   u.Period,
			Offset:   u.Offset,
			Deadline: u.Deadline,
			Priority: u.Priority,
			Latch:    func(now uint64) { b.release(ue, now) },
			Slice: func(release, now, budgetNs uint64) (uint64, bool, error) {
				return b.sliceUnit(ue, release, now, budgetNs)
			},
			Output: func(now uint64) { b.deadline(ue, now) },
		}
		if err := b.sched.AddTask(ue.task); err != nil {
			return nil, err
		}
	}
	b.sched.Start()
	return b, nil
}

// unitExec is the per-unit runtime record: its scheduler task; the
// deadline plan and, on a cluster board, the off-node inputs, both
// resolved at build time; a small pool of reusable VM machines (stacks and
// emit buffers retained across releases); and the machine of the release
// currently in flight — between preemptive slices, or suspended at a
// breakpoint under either policy.
type unitExec struct {
	u     *codegen.Unit
	task  *dtm.Task
	plan  deadlinePlan
	netIn []netInput
	idle  []*codegen.Machine

	m      *codegen.Machine   // machine of the active release
	rel    uint64             // its release instant
	active bool               // a release is mid-body
	prev   codegen.ExecResult // portion already accounted and flushed
}

// deadlinePlan is a unit's deadline latch resolved at NewBoard, so the
// deadline path walks slices of symbol indices instead of looking names up.
type deadlinePlan struct {
	// latch is Unit.OutLatch in order, each pair with its EvSignal
	// template.
	latch []outLatch
	// local are the bindings to consumers on this board, in binding order:
	// the published symbol is copied into the consumer's __io symbol.
	local []symCopy
	// pubs are the unit's published ports, sorted by name.
	pubs []pubPort
	// syms names the symbols the latch writes (published outputs, then
	// local binding targets): the indexed breakpoint check at the publish
	// site evaluates the predicates referencing them.
	syms []string
}

// outLatch is one deadline latch copy; tmpl is the EvSignal template the
// instrumented build emits for it, or -1.
type outLatch struct {
	codegen.LatchPair
	tmpl int
}

// symCopy copies symbol from into symbol to.
type symCopy struct{ from, to int }

// pubPort is one published output port. remote lists its consumers on
// other cluster nodes, in binding order (set by BuildCluster).
type pubPort struct {
	name   string
	sym    int
	remote []remoteRoute
}

// remoteRoute is one cross-node binding as its producer sends it: the
// signal, into the consumer node's inbox.
type remoteRoute struct {
	signal string
	dst    *dtm.Store
}

// netInput is one input port of a cluster board's unit fed over the
// network: the signal it latches and the port's __io symbol.
type netInput struct {
	actor, port, signal string
	sym                 int
}

// planDeadline resolves unit u's deadline latch against the board's
// bindings.
func (b *Board) planDeadline(u *codegen.Unit, bindings []comdes.Binding) deadlinePlan {
	var p deadlinePlan
	for _, lp := range u.OutLatch {
		tmpl, ok := u.SignalEvents[lp.Out]
		if !ok {
			tmpl = -1
		}
		p.latch = append(p.latch, outLatch{lp, tmpl})
		p.syms = append(p.syms, b.Prog.Symbols.Sym(lp.Out).Name)
	}
	for _, bind := range bindings {
		if bind.FromActor != u.Name {
			continue
		}
		dst, ok := b.exec[bind.ToActor]
		if !ok {
			continue
		}
		in, ok := dst.u.InputSyms[bind.ToPort]
		if !ok {
			continue
		}
		p.syms = append(p.syms, b.Prog.Symbols.Sym(in).Name)
		if pub, ok := u.OutputSyms[bind.FromPort]; ok {
			p.local = append(p.local, symCopy{pub, in})
		}
	}
	for _, port := range slices.Sorted(maps.Keys(u.OutputSyms)) {
		p.pubs = append(p.pubs, pubPort{name: port, sym: u.OutputSyms[port]})
	}
	return p
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
	return codegen.NewMachine(b.Prog, ue.u.Body, b)
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
func (b *Board) RunFor(ns uint64) { b.RunUntil(b.kernel.Now() + ns) }

// RunUntil advances the board to absolute virtual time t (see RunFor).
func (b *Board) RunUntil(t uint64) {
	b.kernel.RunUntil(t)
	b.sync(t)
}

// RunThrough advances the board to t as a longer run passes through it:
// every event up to t executes, but the UART is not serviced at t, so a
// later RunUntil continues exactly as if the run had never stopped.
func (b *Board) RunThrough(t uint64) { b.kernel.RunUntil(t) }

// Nodes names the board's one node, so a board and a cluster are debugged
// through the same node-indexed view.
func (b *Board) Nodes() []string { return []string{b.Name} }

// Board returns b when node is its name, or nil.
func (b *Board) Board(node string) *Board {
	if node != b.Name {
		return nil
	}
	return b
}

// Now returns the board's virtual time in nanoseconds.
func (b *Board) Now() uint64 { return b.kernel.Now() }

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
// mid-release by the breakpoint agent, the scheduler continues the
// interrupted body (it may hit another breakpoint and re-suspend) and,
// when it completes, makes up its deadline latch: at the original deadline
// instant when that is still in the future, otherwise immediately — a
// late publish, as on a real halted CPU.
func (b *Board) Resume() { b.sched.Resume() }

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

// Policy is the board's scheduling policy.
func (b *Board) Policy() dtm.Policy { return b.cfg.Sched }

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
	ue, ok := b.exec[actor]
	if !ok {
		return fmt.Errorf("target: unknown actor %q", actor)
	}
	idx, ok := ue.u.InputSyms[port]
	if !ok {
		return fmt.Errorf("target: actor %s has no input %q", actor, port)
	}
	return b.writeInput(actor, port, idx, v)
}

// writeInput is WriteInput with the port's __io symbol idx resolved.
func (b *Board) writeInput(actor, port string, idx int, v value.Value) error {
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
	ue, ok := b.exec[actor]
	if !ok {
		return value.Value{}, fmt.Errorf("target: unknown actor %q", actor)
	}
	idx, ok := ue.u.OutputSyms[port]
	if !ok {
		return value.Value{}, fmt.Errorf("target: actor %s has no output %q", actor, port)
	}
	return b.LoadSym(idx)
}

// String summarises the board state in one line.
func (b *Board) String() string {
	return fmt.Sprintf("board %s: t=%dns cycles=%d (instr %d) tasks=%d halted=%v",
		b.Name, b.Now(), b.cycles, b.instr, len(b.exec), b.Halted())
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
