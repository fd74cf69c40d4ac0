package target

import (
	"fmt"
	"sort"

	"repro/internal/codegen"
	"repro/internal/dtm"
	"repro/internal/protocol"
	"repro/internal/serial"
)

// Explicit-state forms of the board: "the complete execution state of a
// board" as one copyable, JSON-serializable value. A BoardState captures
// every layer the firmware owns — RAM symbols, the scheduler's job set and
// release rhythm, the UART line with frames in flight, the protocol
// decoder mid-frame, the breakpoint agent's armed predicates (hot and
// sticky flags included), pooled VM machines parked mid-release, and the
// made-up deadline latches a suspension deferred. Restore rewinds a board
// built from the same program to that exact instant; because every pending
// kernel event is re-armed with its original sequence number, resuming
// reproduces the original timeline byte-for-byte on the wire.
//
// Snapshot is valid at RunFor/RunUntil boundaries (the kernel quiescent
// points); host-side state (session trace, GDM animation) is captured
// separately by internal/checkpoint.

// deferredLatch is one made-up deadline latch awaiting its instant.
type deferredLatch struct {
	u   *codegen.Unit
	at  uint64
	seq uint64
}

// UnitExecState is the mid-release VM state of one unit under the
// preemptive policy (nil machine = no release in flight).
type UnitExecState struct {
	Active bool                    `json:"active,omitempty"`
	Rel    uint64                  `json:"rel,omitempty"`
	Prev   codegen.ExecResultState `json:"prev,omitempty"`
	M      *codegen.MachineState   `json:"m,omitempty"`
}

// SuspState is a release interrupted mid-body by the breakpoint agent
// under the cooperative policy.
type SuspState struct {
	Unit string                  `json:"unit"`
	Rel  uint64                  `json:"rel"`
	Prev codegen.ExecResultState `json:"prev"`
	M    codegen.MachineState    `json:"m"`
}

// BreakState is one armed on-target breakpoint, including the hot flag
// that preserves trip timing across firmware writes and resumes.
type BreakState struct {
	ID   string `json:"id"`
	Cond string `json:"cond"`
	Hot  bool   `json:"hot,omitempty"`
	Hits uint64 `json:"hits,omitempty"`
	Errs uint64 `json:"errs,omitempty"`
}

// AgentState is the breakpoint/step agent's complete state.
type AgentState struct {
	Breaks  []BreakState `json:"breaks,omitempty"`
	Round   uint64       `json:"round,omitempty"`
	StepArm bool         `json:"stepArm,omitempty"`
}

// DeferredLatchState is one pending made-up deadline latch.
type DeferredLatchState struct {
	Unit string `json:"unit"`
	At   uint64 `json:"at"`
	Seq  uint64 `json:"seq"`
}

// BoardState is the complete execution state of one board.
type BoardState struct {
	Name    string `json:"name"`
	Program string `json:"program"`

	// Kernel is present for a standalone board; a cluster snapshot stores
	// the shared kernel once at cluster level and leaves this nil.
	Kernel *dtm.KernelState `json:"kernel,omitempty"`

	Sched dtm.SchedulerState `json:"sched"`
	RAM   []byte             `json:"ram"`
	Link  serial.LinkState   `json:"link"`

	Seq       uint16 `json:"seq"`
	Cycles    uint64 `json:"cycles"`
	Instr     uint64 `json:"instr,omitempty"`
	DropsSeen uint64 `json:"dropsSeen,omitempty"`
	LastErr   string `json:"lastErr,omitempty"`

	Dec      protocol.DecoderState    `json:"dec,omitempty"`
	Agent    AgentState               `json:"agent,omitempty"`
	Units    map[string]UnitExecState `json:"units,omitempty"`
	Susp     *SuspState               `json:"susp,omitempty"`
	Deferred []DeferredLatchState     `json:"deferred,omitempty"`
}

// Snapshot captures the board's complete execution state, including its
// kernel clock. Call it at a RunFor boundary. The result shares no
// storage with the live board.
func (b *Board) Snapshot() (*BoardState, error) {
	st, err := b.snapshotLocal()
	if err != nil {
		return nil, err
	}
	k := b.kernel.Snapshot()
	st.Kernel = &k
	return st, nil
}

// snapshotLocal captures everything except the (possibly shared) kernel.
func (b *Board) snapshotLocal() (*BoardState, error) {
	st := &BoardState{
		Name:    b.Name,
		Program: b.Prog.Name,
		Sched:   b.sched.Snapshot(),
		RAM:     append([]byte(nil), b.ram...),
		Link:    b.Link.Snapshot(),
		Seq:     b.seq,
		Cycles:  b.cycles, Instr: b.instr,
		DropsSeen: b.dropsSeen,
		Dec:       b.dec.Snapshot(),
	}
	if b.lastErr != nil {
		st.LastErr = b.lastErr.Error()
	}
	for _, bp := range b.agent.bps {
		st.Agent.Breaks = append(st.Agent.Breaks, BreakState{
			ID: bp.id, Cond: bp.text, Hot: bp.hot, Hits: bp.hits, Errs: bp.errs,
		})
	}
	st.Agent.Round = b.agent.round
	st.Agent.StepArm = b.agent.stepArm
	names := make([]string, 0, len(b.exec))
	for name := range b.exec {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ue := b.exec[name]
		if !ue.active {
			continue
		}
		if st.Units == nil {
			st.Units = map[string]UnitExecState{}
		}
		m := ue.m.Snapshot()
		st.Units[name] = UnitExecState{
			Active: true, Rel: ue.rel,
			Prev: codegen.EncodeExecResult(ue.prev), M: &m,
		}
	}
	if b.susp != nil {
		st.Susp = &SuspState{
			Unit: b.susp.u.Name, Rel: b.susp.rel,
			Prev: codegen.EncodeExecResult(b.susp.prev),
			M:    b.susp.m.Snapshot(),
		}
	}
	for _, dl := range b.deferred {
		st.Deferred = append(st.Deferred, DeferredLatchState{Unit: dl.u.Name, At: dl.at, Seq: dl.seq})
	}
	return st, nil
}

// Restore rewinds a standalone board to a snapshot. The board must run the
// same program (restore binds machine states to unit bodies by name); it
// may be the very board the snapshot was taken from, or a fresh one booted
// from the same model in another process.
func (b *Board) Restore(st *BoardState) error {
	if st.Kernel == nil {
		return fmt.Errorf("target: board state %s has no kernel (cluster-scoped; restore via Cluster.Restore)", st.Name)
	}
	b.kernel.Restore(*st.Kernel)
	return b.restoreLocal(st)
}

// restoreLocal rewinds everything except the kernel clock (already
// restored — once per board standalone, once per cluster shared).
func (b *Board) restoreLocal(st *BoardState) error {
	if st.Program != b.Prog.Name {
		return fmt.Errorf("target: restore of program %q onto board running %q", st.Program, b.Prog.Name)
	}
	if len(st.RAM) != len(b.ram) {
		return fmt.Errorf("target: restore RAM size %d onto board with %d", len(st.RAM), len(b.ram))
	}
	if err := b.sched.Restore(st.Sched); err != nil {
		return err
	}
	copy(b.ram, st.RAM)
	if err := b.Link.Restore(st.Link); err != nil {
		return err
	}
	b.seq = st.Seq
	b.cycles, b.instr = st.Cycles, st.Instr
	b.dropsSeen = st.DropsSeen
	b.lastErr = nil
	if st.LastErr != "" {
		b.lastErr = fmt.Errorf("%s", st.LastErr)
	}
	b.dec.Restore(st.Dec)

	// Breakpoint agent: re-arm in original order (iteration order decides
	// which predicate wins a multi-hit check), then overwrite the flags the
	// fresh arming defaulted.
	b.agent.bps = nil
	for _, bs := range st.Agent.Breaks {
		if err := b.agent.set(bs.ID, bs.Cond); err != nil {
			return fmt.Errorf("target: restore breakpoint %s: %w", bs.ID, err)
		}
		bp := b.agent.bps[len(b.agent.bps)-1]
		bp.hot, bp.hits, bp.errs = bs.Hot, bs.Hits, bs.Errs
	}
	b.agent.reindex()
	b.agent.round = st.Agent.Round
	b.agent.stepArm = st.Agent.StepArm
	b.agent.hitBP, b.agent.stepHit = nil, false

	// Mid-release VM machines, rebuilt on fresh machines so a restore
	// never aliases the pool of the board the snapshot came from.
	for name, ue := range b.exec {
		us, ok := st.Units[name]
		if !ok || !us.Active {
			ue.active = false
			ue.m = nil
			ue.rel = 0
			ue.prev = codegen.ExecResult{BreakPC: -1}
			continue
		}
		m := codegen.NewMachine(b.Prog, ue.u.Body, b)
		if b.useThreaded {
			m.SetThreaded(ue.u.ThreadedBody)
		}
		if err := m.Restore(*us.M); err != nil {
			return fmt.Errorf("target: restore unit %s machine: %w", name, err)
		}
		prev, err := codegen.DecodeExecResult(us.Prev)
		if err != nil {
			return fmt.Errorf("target: restore unit %s: %w", name, err)
		}
		ue.m, ue.rel, ue.active, ue.prev = m, us.Rel, true, prev
	}
	for name := range st.Units {
		if _, ok := b.exec[name]; !ok {
			return fmt.Errorf("target: restore of unknown unit %q", name)
		}
	}

	b.susp = nil
	if st.Susp != nil {
		u, ok := b.units[st.Susp.Unit]
		if !ok {
			return fmt.Errorf("target: restore suspension of unknown unit %q", st.Susp.Unit)
		}
		ue := b.exec[st.Susp.Unit]
		m := codegen.NewMachine(b.Prog, u.Body, b)
		if b.useThreaded {
			m.SetThreaded(u.ThreadedBody)
		}
		if err := m.Restore(st.Susp.M); err != nil {
			return fmt.Errorf("target: restore suspended machine: %w", err)
		}
		prev, err := codegen.DecodeExecResult(st.Susp.Prev)
		if err != nil {
			return fmt.Errorf("target: restore suspension: %w", err)
		}
		b.susp = &suspended{u: u, ue: ue, m: m, rel: st.Susp.Rel, prev: prev}
	}

	b.deferred = b.deferred[:0]
	for _, ds := range st.Deferred {
		u, ok := b.units[ds.Unit]
		if !ok {
			return fmt.Errorf("target: restore deferred latch of unknown unit %q", ds.Unit)
		}
		dl := &deferredLatch{u: u, at: ds.At, seq: ds.Seq}
		b.deferred = append(b.deferred, dl)
		if err := b.kernel.Rearm(dl.at, dl.seq, func(n uint64) { b.fireDeferred(dl, n) }); err != nil {
			return fmt.Errorf("target: restore deferred latch %s: %w", ds.Unit, err)
		}
	}
	return nil
}

// ClusterState composes per-node board snapshots with the shared kernel,
// the network frames in flight, and each node's inbox store — so a
// distributed run restores coherently: every board, every cross-node
// signal mid-hop, and the global clock rewind together.
type ClusterState struct {
	// Parallel records the execution mode the snapshot was taken under. A
	// parallel snapshot carries one kernel per board (BoardState.Kernel)
	// plus the facade clock in Kernel; a serial snapshot carries the single
	// shared kernel in Kernel and nil per-board kernels. Restoring across
	// modes is rejected — the pending events would land on the wrong clocks.
	Parallel bool                      `json:"parallel,omitempty"`
	Kernel   dtm.KernelState           `json:"kernel"`
	Net      dtm.NetworkState          `json:"net"`
	Boards   map[string]*BoardState    `json:"boards"`
	Inboxes  map[string]dtm.StoreState `json:"inboxes,omitempty"`
}

// Snapshot captures the whole cluster at a RunUntil boundary. In parallel
// mode every RunUntil return is a barrier (workers joined, deliveries
// flushed, all clocks at the horizon), so the same boundary contract
// applies; each node's kernel is captured into its BoardState. Kernels
// are captured through the network, which adds the schedule instants of
// the bus events it holds back (dtm.Network.SnapshotKernel).
func (c *Cluster) Snapshot() (*ClusterState, error) {
	net, err := c.Net.Snapshot()
	if err != nil {
		return nil, err
	}
	st := &ClusterState{
		Parallel: c.parallel,
		Kernel:   c.Net.SnapshotKernel(c.Kernel),
		Net:      net,
		Boards:   map[string]*BoardState{},
		Inboxes:  map[string]dtm.StoreState{},
	}
	for _, node := range c.nodes {
		bs, err := c.Boards[node].snapshotLocal()
		if err != nil {
			return nil, fmt.Errorf("target: node %s: %w", node, err)
		}
		if c.parallel {
			ks := c.Net.SnapshotKernel(c.kernels[node])
			bs.Kernel = &ks
		}
		st.Boards[node] = bs
		st.Inboxes[node] = c.inbox[node].Snapshot()
	}
	return st, nil
}

// Restore rewinds the whole cluster to a snapshot: the shared kernel's
// event queue is rebuilt from every board's pending releases, latches and
// slices plus the network's in-flight frames, all at their original
// sequence positions, so the merged event order across nodes replays
// exactly.
func (c *Cluster) Restore(st *ClusterState) error {
	if len(st.Boards) != len(c.nodes) {
		return fmt.Errorf("target: restore of %d-node state onto %d-node cluster", len(st.Boards), len(c.nodes))
	}
	if st.Parallel != c.parallel {
		mode := func(p bool) string {
			if p {
				return "parallel"
			}
			return "serial"
		}
		return fmt.Errorf("target: restore of %s-mode snapshot onto %s-mode cluster (set ClusterConfig.Exec to match)", mode(st.Parallel), mode(c.parallel))
	}
	c.Kernel.Restore(st.Kernel)
	for _, node := range c.nodes {
		bs, ok := st.Boards[node]
		if !ok {
			return fmt.Errorf("target: restore state missing node %q", node)
		}
		if c.parallel {
			if bs.Kernel == nil {
				return fmt.Errorf("target: parallel restore: node %s snapshot carries no kernel", node)
			}
			c.kernels[node].Restore(*bs.Kernel)
		}
		if err := c.Boards[node].restoreLocal(bs); err != nil {
			return fmt.Errorf("target: node %s: %w", node, err)
		}
	}
	if err := c.Net.Restore(st.Net); err != nil {
		return err
	}
	for _, node := range c.nodes {
		if inb, ok := st.Inboxes[node]; ok {
			if err := c.inbox[node].Restore(inb); err != nil {
				return fmt.Errorf("target: node %s inbox: %w", node, err)
			}
		}
	}
	return nil
}
