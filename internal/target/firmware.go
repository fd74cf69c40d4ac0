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
// task boundaries), network-fed inputs re-latch from the node's inbox, the
// environment hook runs, and the __io inputs are latched into their stable
// task-instance symbols.
func (b *Board) release(ue *unitExec, now uint64) {
	u := ue.u
	b.sync(now)
	if len(ue.netIn) > 0 {
		b.relatch(ue)
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

// relatch writes every network-fed input of the unit from the node's
// inbox (a cluster board's consumer release re-latches from the signal
// board, so a host-injected __io value cannot outlive the next release).
// Signals the inbox has not seen yet are left alone.
func (b *Board) relatch(ue *unitExec) {
	for _, in := range ue.netIn {
		if v := b.inbox.Get(in.signal); v.IsValid() {
			if err := b.writeInput(in.actor, in.port, in.sym, v); err != nil {
				b.fail(err)
			}
		}
	}
}

// sliceUnit runs one slice of a release: the dtm.Task.Slice hook, the one
// body path of both policies. A Cooperative release is one slice with the
// dtm.Unbounded budget: the body runs to completion and costs the
// full-precision floor of its cycles. A FixedPriority release runs in
// budgeted slices, each rounded up so that any nonzero slice consumes
// virtual time. The first slice of a release acquires a pooled machine;
// later slices continue it from the interrupted instruction. When the
// breakpoint agent halts the VM mid-body, the release is suspended: the
// machine is kept for resumption, an EvBreak/EvStepped frame stamped with
// the triggering instruction's virtual time goes on the wire, and
// dtm.ErrSuspended tells the scheduler to park the job until Resume. A
// cooperative continuation runs at the resume instant, and a re-hit in it
// is stamped there.
func (b *Board) sliceUnit(ue *unitExec, release, now, budgetNs uint64) (uint64, bool, error) {
	resumed := ue.active && ue.rel == release
	if !resumed {
		ue.m = ue.acquire(b)
		ue.rel = release
		ue.active = true
		ue.prev = codegen.ExecResult{BreakPC: -1}
	}
	bounded := budgetNs != dtm.Unbounded
	budget := uint64(dtm.Unbounded)
	if bounded {
		budget = max(b.nsToCycles(budgetNs), 1) // always make progress, even on sub-cycle budgets
	}
	cycles, hit, err := b.runBody(ue, now, budget)
	used := b.cyclesToNs(cycles)
	if bounded {
		used = b.cyclesToNsCeil(cycles)
	}
	if err != nil {
		return used, false, err
	}
	if hit {
		at := now + used
		if resumed && !bounded {
			at = now
		}
		b.sched.Halt()
		b.send(b.agent.hitEvent(at))
		return used, false, dtm.ErrSuspended
	}
	return used, !ue.active, nil
}

// runBody continues ue's release on its machine for up to budget cycles.
// Cycles, check cycles and emits are charged as deltas against the portion
// already accounted, so a release run in several pieces costs exactly what
// it costs in one (plus context switches). The machine goes back to the
// pool when the release finishes or fails; a breakpoint hit (hit) leaves
// it parked. cycles is what this run consumed.
func (b *Board) runBody(ue *unitExec, now, budget uint64) (cycles uint64, hit bool, err error) {
	m := ue.m
	m.Hook = b.agent.hook() // breakpoints may have changed since the last run
	res, err := m.RunBudget(budget)
	cycles = res.Cycles - ue.prev.Cycles
	b.cycles += cycles
	b.instr += res.CheckCycles - ue.prev.CheckCycles
	newEmits := res.Emits[len(ue.prev.Emits):]
	b.instr += uint64(len(newEmits)) * codegen.EmitCycles
	b.flushEmits(now, newEmits)
	if err != nil || (res.BreakPC < 0 && m.Done()) {
		ue.active, ue.m = false, nil
		ue.recycle(m)
		return cycles, false, err
	}
	ue.prev = res
	return cycles, res.BreakPC >= 0, nil
}

// missed is the FixedPriority scheduler's deadline-miss hook, invoked at
// the latch instant of an unfinished release: the kernel counter lands in
// the task's __misses RAM symbol (visible to the passive JTAG interface),
// an EvDeadlineMiss frame goes out on the UART, and on-target breakpoint
// conditions over the counter are checked — so "break on deadline miss"
// halts the board at the miss itself.
func (b *Board) missed(now uint64, t *dtm.Task) {
	u := b.exec[t.Name].u
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
	u := b.exec[t.Name].u
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

// deadline runs at the task's deadline instant: working outputs are
// latched into the published __pub symbols, instrumented signal events are
// emitted (each costs EmitCycles of target CPU — the active interface is
// never free), and signal bindings deliver the published values to their
// consumers. It walks the unit's deadline plan, resolved at NewBoard (and,
// for the cross-node routes, at BuildCluster), instead of looking units,
// ports and bindings up by name.
func (b *Board) deadline(ue *unitExec, now uint64) {
	u, p := ue.u, &ue.plan
	b.Link.Advance(now)
	b.reportDrops(now)
	for _, lp := range p.latch {
		b.copySym(lp.Work, lp.Out)
		if lp.tmpl >= 0 {
			published, err := b.LoadSym(lp.Out)
			if err != nil {
				b.fail(err)
				continue
			}
			b.cycles += codegen.EmitCycles
			b.instr += codegen.EmitCycles
			b.emitTemplate(now, b.Prog.Events[lp.tmpl], published, true)
		}
	}
	// State-message communication: published values reach their consumers'
	// __io symbols. Local consumers are written directly; a cluster sends
	// each value to its consumers on other nodes over its network.
	for _, c := range p.local {
		b.copySym(c.from, c.to)
	}
	if b.sender != nil {
		for i := range p.pubs {
			b.publish(&p.pubs[i])
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
		hit, cost := b.agent.check(p.syms, u.Name, value.Value{}, false)
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

// publish sends port's published value to each of its consumers on other
// cluster nodes, in binding order.
func (b *Board) publish(port *pubPort) {
	if len(port.remote) == 0 {
		return
	}
	v, err := b.LoadSym(port.sym)
	if err != nil {
		return
	}
	for _, r := range port.remote {
		b.sender.Send(r.signal, v, r.dst)
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
		b.Resume()
		b.send(protocol.Event{Type: protocol.EvResumed, Time: now, Source: b.Name})
	case protocol.InStep:
		// Run-to-next-model-event: arm the step, then resume. A release
		// suspended at a breakpoint continues first and may complete the
		// step immediately at its next emit.
		b.agent.stepArm = true
		b.Resume()
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
