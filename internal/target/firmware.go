package target

import (
	"repro/internal/codegen"
	"repro/internal/dtm"
	"repro/internal/protocol"
	"repro/internal/value"
)

// The firmware half of the board: what the scheduled task callbacks do at
// release and deadline instants, how instrumentation events reach the
// UART, and how host instructions are serviced.

// release runs at a task's release instant: the line is advanced to now,
// pending host instructions are serviced (the firmware polls its UART at
// task boundaries), the environment hook runs, and the __io inputs are
// latched into their stable task-instance symbols.
func (b *Board) release(u *codegen.Unit, now uint64) {
	b.sync(now)
	if b.preRelease != nil {
		b.preRelease(now, u.Name)
	}
	if b.PreLatch != nil {
		b.PreLatch(now, u.Name)
	}
	armed := len(b.agent.bps) > 0
	for _, lp := range u.InLatch {
		b.copySym(lp.Work, lp.Out)
		if armed {
			// Latch copies bypass the VM's store hook; predicates over the
			// latched symbols get evaluated at the body's next check site.
			b.agent.touch(b.Prog.Symbols.Sym(lp.Out).Name)
		}
	}
}

// execute runs the unit body to completion on a pooled VM machine —
// the Cooperative policy's release path. Cycles are accounted and any
// instrumentation events raised by OpEmit go on the wire. It returns the
// virtual execution cost so the scheduler can detect deadline overruns.
// When the breakpoint agent halts the VM mid-body, the release is
// suspended: the machine is kept for resumption, an EvBreak/EvStepped
// frame stamped with the triggering instruction's virtual time goes on
// the wire, and dtm.ErrSuspended tells the scheduler to skip the deadline
// latch.
func (b *Board) execute(u *codegen.Unit, now uint64) (uint64, error) {
	ue := b.exec[u.Name]
	m := ue.acquire(b)
	m.Hook = b.agent.hook()
	res, err := m.Run()
	b.account(res)
	b.flushEmits(now, res.Emits)
	cost := b.cyclesToNs(res.Cycles)
	if err != nil {
		ue.recycle(m)
		return cost, err
	}
	if res.BreakPC >= 0 {
		b.susp = &suspended{u: u, ue: ue, m: m, rel: now, prev: res}
		b.sched.Halt()
		b.send(b.agent.hitEvent(now + cost))
		return cost, dtm.ErrSuspended
	}
	ue.recycle(m)
	return cost, nil
}

// sliceUnit runs one budgeted slice of a release under the FixedPriority
// policy — the dtm.Task.Slice hook. The first slice of a release acquires
// a pooled machine; later slices continue it from the interrupted
// instruction. Cycles and emits are accounted as deltas against the
// portion already charged, so a release preempted five times costs
// exactly what it costs uninterrupted (plus context switches). A
// breakpoint hit inside any slice suspends the release exactly as in the
// cooperative path, with the machine parked for resumption.
func (b *Board) sliceUnit(ue *unitExec, release, now, budgetNs uint64) (uint64, bool, error) {
	if !ue.active || ue.rel != release {
		ue.m = ue.acquire(b)
		ue.rel = release
		ue.active = true
		ue.prev = codegen.ExecResult{BreakPC: -1}
	}
	m := ue.m
	m.Hook = b.agent.hook() // breakpoints may have changed between slices
	budget := b.nsToCycles(budgetNs)
	if budget == 0 {
		budget = 1 // always make progress, even on sub-cycle budgets
	}
	res, err := m.RunBudget(budget)
	delta := res.Cycles - ue.prev.Cycles
	b.cycles += delta
	b.instr += res.CheckCycles - ue.prev.CheckCycles
	newEmits := res.Emits[len(ue.prev.Emits):]
	b.instr += uint64(len(newEmits)) * codegen.EmitCycles
	b.flushEmits(now, newEmits)
	used := b.cyclesToNsCeil(delta)
	if err != nil {
		ue.active = false
		ue.recycle(m)
		return used, false, err
	}
	if res.BreakPC >= 0 {
		ue.prev = res
		b.sched.Halt()
		b.send(b.agent.hitEvent(now + used))
		return used, false, dtm.ErrSuspended
	}
	if m.Done() {
		ue.active = false
		ue.recycle(m)
		return used, true, nil
	}
	ue.prev = res
	return used, false, nil
}

// missed is the FixedPriority scheduler's deadline-miss hook, invoked at
// the latch instant of an unfinished release: the kernel counter lands in
// the task's __misses RAM symbol (visible to the passive JTAG interface),
// an EvDeadlineMiss frame goes out on the UART, and on-target breakpoint
// conditions over the counter are checked — so "break on deadline miss"
// halts the board at the miss itself.
func (b *Board) missed(now uint64, t *dtm.Task) {
	u := b.units[t.Name]
	name := b.Prog.Symbols.Sym(u.MissSym).Name
	if err := b.StoreSym(u.MissSym, value.I(int64(t.DeadlineMisses))); err != nil {
		b.fail(err)
	}
	b.send(protocol.Event{
		Type: protocol.EvDeadlineMiss, Time: now, Source: t.Name,
		Value: float64(t.DeadlineMisses),
	})
	b.checkSchedSym(now, name, value.I(int64(t.DeadlineMisses)))
}

// preempted is the FixedPriority scheduler's preemption hook: counter to
// RAM, EvPreempt on the wire, breakpoint conditions over __preempts
// checked at the preemption boundary.
func (b *Board) preempted(now uint64, t, by *dtm.Task) {
	u := b.units[t.Name]
	name := b.Prog.Symbols.Sym(u.PreemptSym).Name
	if err := b.StoreSym(u.PreemptSym, value.I(int64(t.Preemptions))); err != nil {
		b.fail(err)
	}
	b.send(protocol.Event{
		Type: protocol.EvPreempt, Time: now, Source: t.Name, Arg1: by.Name,
		Value: float64(t.Preemptions),
	})
	b.checkSchedSym(now, name, value.I(int64(t.Preemptions)))
}

// busSlot announces one TDMA frame departure from this node's TX queue —
// the cluster network's slot hook, stamped at the departure instant.
func (b *Board) busSlot(now uint64, signal string, slot uint64) {
	b.send(protocol.Event{
		Type: protocol.EvBusSlot, Time: now, Source: b.Name, Arg1: signal,
		Value: float64(slot),
	})
}

// busDrop is the cluster network's loss hook for this node: the cumulative
// drop counter lands in the __busdrops RAM symbol (visible to the passive
// JTAG interface), an EvFrameDropped frame goes out on the UART, and
// on-target breakpoint conditions over the counter are checked — so "break
// on bus loss" halts the board at the slot that lost the frame.
func (b *Board) busDrop(now uint64, signal string, total uint64) {
	if b.Prog.BusDropSym >= 0 {
		if err := b.StoreSym(b.Prog.BusDropSym, value.I(int64(total))); err != nil {
			b.fail(err)
		}
	}
	b.send(protocol.Event{
		Type: protocol.EvFrameDropped, Time: now, Source: b.Name, Arg1: signal,
		Value: float64(total),
	})
	if b.Prog.BusDropSym >= 0 {
		b.checkSchedSym(now, b.Prog.Symbols.Sym(b.Prog.BusDropSym).Name, value.I(int64(total)))
	}
}

// checkSchedSym runs the indexed breakpoint check for one scheduling
// counter symbol the kernel just wrote.
func (b *Board) checkSchedSym(now uint64, sym string, v value.Value) {
	if len(b.agent.bps) == 0 || b.sched.Halted() {
		return
	}
	hit, cost := b.agent.check([]string{sym}, sym, v, true)
	b.cycles += cost
	b.instr += cost
	if hit {
		b.sched.Halt()
		b.send(b.agent.hitEvent(now))
	}
}

// cyclesToNs is the full-precision cycle -> time conversion (per run, so
// CPUHz values that do not divide 1e9 — or exceed it — stay accurate).
func (b *Board) cyclesToNs(cycles uint64) uint64 {
	return cycles * 1_000_000_000 / b.cfg.CPUHz
}

// cyclesToNsCeil rounds up, so any nonzero slice of work consumes at
// least one nanosecond of virtual time and the preemptive scheduler
// always makes progress on cores faster than 1 GHz.
func (b *Board) cyclesToNsCeil(cycles uint64) uint64 {
	return (cycles*1_000_000_000 + b.cfg.CPUHz - 1) / b.cfg.CPUHz
}

// nsToCycles converts a slice budget to VM cycles (floor).
func (b *Board) nsToCycles(ns uint64) uint64 {
	return ns * b.cfg.CPUHz / 1_000_000_000
}

// suspended is one release interrupted mid-body by the breakpoint agent
// under the Cooperative policy.
type suspended struct {
	u    *codegen.Unit
	ue   *unitExec
	m    *codegen.Machine
	rel  uint64             // release instant
	prev codegen.ExecResult // portion already accounted and flushed
}

// runSuspended finishes a release interrupted by the breakpoint agent:
// the VM continues from the instruction after the hit, newly raised emits
// and cycles are accounted as a delta, and the deadline latch that
// dtm.ErrSuspended skipped is made up. Re-hitting a breakpoint during the
// continuation re-suspends. Under the FixedPriority policy suspensions
// live inside the scheduler's job queue instead (b.susp stays nil), so
// this is a no-op there.
func (b *Board) runSuspended() {
	if b.susp == nil || b.sched.Halted() {
		return
	}
	s := b.susp
	s.m.Hook = b.agent.hook() // breakpoints may have changed while halted
	res, err := s.m.Run()
	now := b.kernel.Now()
	b.cycles += res.Cycles - s.prev.Cycles
	b.instr += res.CheckCycles - s.prev.CheckCycles
	newEmits := res.Emits[len(s.prev.Emits):]
	b.instr += uint64(len(newEmits)) * codegen.EmitCycles
	b.flushEmits(now, newEmits)
	if err != nil {
		b.susp = nil
		s.ue.recycle(s.m)
		b.fail(err)
		return
	}
	if res.BreakPC >= 0 {
		s.prev = res
		b.sched.Halt()
		b.send(b.agent.hitEvent(now))
		return
	}
	b.susp = nil
	s.ue.recycle(s.m)
	u, rel := s.u, s.rel
	if d := rel + u.Deadline; d > now {
		b.deferLatch(u, d)
	} else {
		b.deadline(u, now)
	}
}

// deferLatch arms a made-up deadline latch as an explicit record (part of
// the board snapshot) instead of a bare closure.
func (b *Board) deferLatch(u *codegen.Unit, at uint64) {
	dl := &deferredLatch{u: u, at: at}
	b.deferred = append(b.deferred, dl)
	dl.seq, _ = b.kernel.ScheduleTagged(at, func(n uint64) { b.fireDeferred(dl, n) })
}

// fireDeferred runs one made-up latch and retires its record.
func (b *Board) fireDeferred(dl *deferredLatch, now uint64) {
	for i, d := range b.deferred {
		if d == dl {
			b.deferred = append(b.deferred[:i], b.deferred[i+1:]...)
			break
		}
	}
	b.deadline(dl.u, now)
}

// deadline runs at the task's deadline instant: working outputs are
// latched into the published __pub symbols, instrumented signal events are
// emitted (each costs EmitCycles of target CPU — the active interface is
// never free), and signal bindings deliver the published values to their
// consumers.
func (b *Board) deadline(u *codegen.Unit, now uint64) {
	b.Link.Advance(now)
	b.reportDrops(now)
	for _, lp := range u.OutLatch {
		b.copySym(lp.Work, lp.Out)
		if tmpl, ok := u.SignalEvents[lp.Out]; ok {
			published, err := b.LoadSym(lp.Out)
			if err != nil {
				b.fail(err)
				continue
			}
			b.cycles += codegen.EmitCycles
			b.instr += codegen.EmitCycles
			b.emitTemplate(now, b.Prog.Events[tmpl], published, true)
		}
	}
	// State-message communication: published values reach their consumers'
	// __io symbols. Local consumers are written directly; the OnPublish
	// hook lets a cluster route cross-board bindings over its network.
	for _, bind := range b.routes[u.Name] {
		pub, ok := u.OutputSyms[bind.FromPort]
		if !ok {
			continue
		}
		if dst, ok := b.units[bind.ToActor]; ok {
			if in, ok := dst.InputSyms[bind.ToPort]; ok {
				b.copySym(pub, in)
			}
		}
	}
	if b.OnPublish != nil {
		for _, port := range b.outPorts[u.Name] {
			if v, err := b.LoadSym(u.OutputSyms[port]); err == nil {
				b.OnPublish(now, u.Name, port, v)
			}
		}
	}
	// The publish site is the third breakpoint check point (after the VM's
	// store and emit sites): conditions over __pub symbols and freshly
	// delivered bindings trip here, and a pending step completes — the
	// deadline latch *is* a model event (signal publication), so stepping
	// works even on a completely clean, uninstrumented build. A board that
	// is already halted only drains pre-latched deadlines; those must not
	// re-trigger the agent.
	if b.sched.Halted() {
		return
	}
	if len(b.agent.bps) > 0 {
		hit, cost := b.agent.check(b.pubSyms[u.Name], u.Name, value.Value{}, false)
		b.cycles += cost
		b.instr += cost
		if hit {
			b.sched.Halt()
			b.send(b.agent.hitEvent(now))
			return
		}
	}
	if b.agent.stepArm {
		b.agent.stepArm = false
		b.sched.Halt()
		b.send(protocol.Event{Type: protocol.EvStepped, Time: now, Source: b.Name, Arg1: u.Name})
	}
}

// account folds one VM run into the cycle counters. Every OpEmit the run
// executed — and every breakpoint predicate it evaluated — is
// instrumentation overhead.
func (b *Board) account(res codegen.ExecResult) {
	b.cycles += res.Cycles
	b.instr += uint64(len(res.Emits))*codegen.EmitCycles + res.CheckCycles
}

// flushEmits turns the VM's pending emit refs into wire frames.
func (b *Board) flushEmits(now uint64, emits []codegen.EmitRef) {
	for _, ref := range emits {
		b.emitTemplate(now, b.Prog.Events[ref.Template], ref.Value, ref.HasValue)
	}
}

// emitTemplate builds one event from a compiled template and queues it on
// the UART.
func (b *Board) emitTemplate(now uint64, t codegen.EventTemplate, v value.Value, hasValue bool) {
	ev := protocol.Event{Type: t.Type, Time: now, Source: t.Source, Arg1: t.Arg1, Arg2: t.Arg2}
	if hasValue || t.WithValue {
		ev.Value = v.Float()
	}
	b.send(ev)
}

// send stamps the next sequence number and transmits the frame. The line
// paces delivery: at the configured baud each byte occupies the wire for
// its bit time, so a saturated link delays or drops frames — exactly the
// bandwidth ceiling of the active command interface.
func (b *Board) send(ev protocol.Event) {
	b.seq++
	ev.Seq = b.seq
	wire, err := protocol.AppendEvent(b.wire[:0], ev)
	if err != nil {
		b.fail(err)
		return
	}
	b.wire = wire
	b.portA.Send(wire)
}

// sync advances the UART line to now, reports any newly dropped frames,
// and services host instructions that have fully arrived. Called at task
// releases and RunFor boundaries; the latter keeps a halted target
// responsive to a remote Resume.
func (b *Board) sync(now uint64) {
	b.Link.Advance(now)
	b.reportDrops(now)
	_, ins := b.dec.Feed(b.portA.Recv())
	for _, in := range ins {
		b.service(in, now)
	}
}

// reportDrops publishes the TX drop counter when it has grown since the
// last report — the target-side evidence of E7b's delivered/emitted gap.
// The report is held back until the FIFO has room for its exact frame, so
// the report itself is never the next casualty of the saturation it
// describes; it runs before the deadline sites emit new signal frames, so
// a permanently saturated line still gets the counter out. A stuffed
// frame is never shorter than its unstuffed length, so a FIFO with less
// room than that is refused before anything is encoded.
func (b *Board) reportDrops(now uint64) {
	st := b.portA.Stats()
	if st.FramesDropped == b.dropsSeen {
		return
	}
	ev := protocol.Event{
		Type: protocol.EvOverrun, Seq: b.seq + 1, Time: now, Source: b.Name,
		Arg1: "frames", Value: float64(st.FramesDropped),
	}
	free := b.portA.Free()
	if free < protocol.UnstuffedLen(ev) {
		return // hold the report (and its sequence slot) for later
	}
	wire, err := protocol.AppendEvent(b.wire[:0], ev)
	if err != nil {
		b.fail(err)
		return
	}
	b.wire = wire
	if free < len(wire) {
		return
	}
	b.seq++
	b.dropsSeen = st.FramesDropped
	b.portA.Send(wire)
}

// service executes one GDM -> target instruction and acknowledges with an
// event. Since the target-resident agent exists, InSetBreak/InClearBreak
// arm and disarm on-target condition breakpoints and InStep runs to the
// next model-level event — model-level debugging no longer needs a host
// round-trip to halt the board.
func (b *Board) service(in protocol.Instruction, now uint64) {
	switch in.Type {
	case protocol.InPause:
		b.sched.Halt()
		b.send(protocol.Event{Type: protocol.EvHalted, Time: now, Source: b.Name})
	case protocol.InResume:
		b.sched.Resume()
		b.runSuspended()
		b.send(protocol.Event{Type: protocol.EvResumed, Time: now, Source: b.Name})
	case protocol.InStep:
		// Run-to-next-model-event: arm the step, then resume. A release
		// suspended at a breakpoint continues first and may complete the
		// step immediately at its next emit.
		b.agent.stepArm = true
		b.sched.Resume()
		b.runSuspended()
	case protocol.InSetBreak:
		// A malformed condition is dropped on the floor like any damaged
		// instruction; the host validated the expression before sending.
		_ = b.agent.set(in.Source, in.Arg1)
	case protocol.InClearBreak:
		b.agent.clear(in.Source)
	case protocol.InReadVar:
		b.ackWatch(in.Source, now)
	case protocol.InWriteVar:
		if idx, ok := b.Prog.Symbols.Index(in.Source); ok {
			if err := b.StoreSym(idx, value.F(in.Value)); err == nil {
				// A host write bypasses the VM's store hook; predicates
				// over the symbol fire at the next check site.
				b.agent.touch(in.Source)
				b.ackWatch(in.Source, now)
			}
		}
	}
}

// ackWatch answers a variable read/write instruction with the symbol's
// current RAM value.
func (b *Board) ackWatch(symbol string, now uint64) {
	idx, ok := b.Prog.Symbols.Index(symbol)
	if !ok {
		return
	}
	v, err := b.LoadSym(idx)
	if err != nil {
		return
	}
	b.send(protocol.Event{
		Type: protocol.EvWatch, Time: now, Source: symbol,
		Arg2: v.String(), Value: v.Float(),
	})
}

// fail records the first firmware error (surfaced through Err).
func (b *Board) fail(err error) {
	if b.lastErr == nil {
		b.lastErr = err
	}
}
