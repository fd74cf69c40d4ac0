package target

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/codegen"
	"repro/internal/dtm"
	"repro/internal/protocol"
	"repro/internal/serial"
)

// Explicit-state forms of the board: "the complete execution state of a
// board" as one copyable, JSON-serializable value. A BoardState captures
// every layer the firmware owns — RAM symbols, the scheduler's jobs (every
// release started and not yet retired, under either policy: preempted,
// suspended at a breakpoint, or finished and waiting for its deadline
// latch), its release rhythm, the UART line with frames in flight, the
// protocol decoder mid-frame, the breakpoint agent's armed predicates (hot
// and sticky flags included), and the VM machines of the releases in
// flight. Older checkpoints may also carry a board "susp" or "deferred"
// record; Restore folds them into the scheduler's form.
// Restore rewinds a board built from the same program to that exact
// instant; because every pending kernel event is re-armed with its
// original sequence number, resuming reproduces the original timeline
// byte-for-byte on the wire.
//
// Snapshot is valid at RunFor/RunUntil boundaries (the kernel quiescent
// points); host-side state (session trace, GDM animation) is captured
// separately by internal/checkpoint.

// UnitExecState is the VM state of one unit's release in flight, under
// either policy: between preemptive slices, or suspended at a breakpoint.
type UnitExecState struct {
	Active bool                    `json:"active,omitempty"`
	Rel    uint64                  `json:"rel,omitempty"`
	Prev   codegen.ExecResultState `json:"prev,omitempty"`
	M      *codegen.MachineState   `json:"m,omitempty"`
}

// SuspState is a cooperative release interrupted mid-body by the
// breakpoint agent, as checkpoints wrote it while the board kept that
// release itself. Restore folds it into a suspended scheduler job plus its
// unit's machine; Snapshot never writes one.
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

// DeferredLatchState is one made-up deadline latch as checkpoints wrote it
// while the board kept those latches itself. Restore folds it into the
// scheduler's pending outputs; Snapshot never writes one.
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
	Susp     *SuspState               `json:"susp,omitempty"`     // read only, see SuspState
	Deferred []DeferredLatchState     `json:"deferred,omitempty"` // read only, see DeferredLatchState
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
	for name, ue := range b.exec {
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
	sched, units := st.Sched, st.Units
	if len(st.Deferred) > 0 {
		sched.Pending = foldDeferred(st.Sched.Pending, st.Deferred)
	}
	if sp := st.Susp; sp != nil {
		// The job's cost so far is the one piece the release ran before it
		// was suspended, charged at the cooperative floor.
		sched.Jobs = append(slices.Clone(sched.Jobs), dtm.JobState{
			Task: sp.Unit, Release: sp.Rel, Suspended: true,
			UsedNs: b.cyclesToNs(sp.Prev.Cycles),
		})
		units = maps.Clone(units)
		if units == nil {
			units = map[string]UnitExecState{}
		}
		units[sp.Unit] = UnitExecState{Active: true, Rel: sp.Rel, Prev: sp.Prev, M: &sp.M}
	}
	if err := b.sched.Restore(sched); err != nil {
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
		ue.active, ue.m, ue.rel, ue.prev = false, nil, 0, codegen.ExecResult{BreakPC: -1}
		if us, ok := units[name]; ok && us.Active {
			if err := ue.park(b, us.Rel, *us.M, us.Prev); err != nil {
				return fmt.Errorf("target: restore unit %s: %w", name, err)
			}
		}
	}
	for name := range units {
		if _, ok := b.exec[name]; !ok {
			return fmt.Errorf("target: restore of unknown unit %q", name)
		}
	}
	return nil
}

// park makes a restored release of ue the one in flight, on a fresh
// machine, with prev the portion already accounted.
func (ue *unitExec) park(b *Board, rel uint64, ms codegen.MachineState, prev codegen.ExecResultState) error {
	m := codegen.NewMachine(b.Prog, ue.u.Body, b)
	if err := m.Restore(ms); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	res, err := codegen.DecodeExecResult(prev)
	if err != nil {
		return err
	}
	ue.m, ue.rel, ue.active, ue.prev = m, rel, true, res
	return nil
}

// foldDeferred merges the made-up latches of a checkpoint written while the
// board kept them itself into the scheduler's pending outputs, in deadline
// order, leaving the checkpoint's own slice untouched. A task is named
// after its unit.
func foldDeferred(pending []dtm.PendingOutputState, deferred []DeferredLatchState) []dtm.PendingOutputState {
	out := slices.Clone(pending)
	for _, d := range deferred {
		i := slices.IndexFunc(out, func(p dtm.PendingOutputState) bool {
			return p.At > d.At || p.At == d.At && p.Seq > d.Seq
		})
		if i < 0 {
			i = len(out)
		}
		out = slices.Insert(out, i, dtm.PendingOutputState{Task: d.Unit, At: d.At, Seq: d.Seq})
	}
	return out
}

// ClusterState composes per-node board snapshots with the shared kernel,
// the network frames in flight, and each node's inbox store — so a
// distributed run restores coherently: every board, every cross-node
// signal mid-hop, and the global clock rewind together.
type ClusterState struct {
	// Kernel is the shared kernel; the boards' states carry no kernel of
	// their own.
	Kernel  dtm.KernelState           `json:"kernel"`
	Net     dtm.NetworkState          `json:"net"`
	Boards  map[string]*BoardState    `json:"boards"`
	Inboxes map[string]dtm.StoreState `json:"inboxes,omitempty"`
}

// ErrParallelCheckpoint is returned by Cluster.Restore for a cluster state
// written by the removed parallel executor, whose boards each carried a
// kernel of their own. Its pending events cannot be placed on the one
// shared kernel; the checkpoint must be recorded again.
var ErrParallelCheckpoint = errors.New("target: checkpoint was written by the removed parallel cluster executor (one kernel per board); record it again")

// Snapshot captures the whole cluster at a RunUntil boundary. The shared
// kernel is captured through the network, which adds the schedule
// instants of the bus events it holds back (dtm.Network.SnapshotKernel).
func (c *Cluster) Snapshot() (*ClusterState, error) {
	net, err := c.Net.Snapshot()
	if err != nil {
		return nil, err
	}
	st := &ClusterState{
		Kernel:  c.Net.SnapshotKernel(),
		Net:     net,
		Boards:  map[string]*BoardState{},
		Inboxes: map[string]dtm.StoreState{},
	}
	for _, node := range c.nodes {
		bs, err := c.Boards[node].snapshotLocal()
		if err != nil {
			return nil, fmt.Errorf("target: node %s: %w", node, err)
		}
		st.Boards[node] = bs
		st.Inboxes[node] = c.Boards[node].inbox.Snapshot()
	}
	return st, nil
}

// Restore rewinds the whole cluster to a snapshot: the shared kernel's
// event queue is rebuilt from every board's pending releases, latches and
// slices plus the network's in-flight frames, all at their original
// sequence positions, so the merged event order across nodes replays
// exactly. A state whose boards carry kernels of their own is refused
// with ErrParallelCheckpoint before anything is touched.
func (c *Cluster) Restore(st *ClusterState) error {
	for _, bs := range st.Boards {
		if bs.Kernel != nil {
			return ErrParallelCheckpoint
		}
	}
	if len(st.Boards) != len(c.nodes) {
		return fmt.Errorf("target: restore of %d-node state onto %d-node cluster", len(st.Boards), len(c.nodes))
	}
	c.Kernel.Restore(st.Kernel)
	for _, node := range c.nodes {
		bs, ok := st.Boards[node]
		if !ok {
			return fmt.Errorf("target: restore state missing node %q", node)
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
			if err := c.Boards[node].inbox.Restore(inb); err != nil {
				return fmt.Errorf("target: node %s inbox: %w", node, err)
			}
		}
	}
	return nil
}
