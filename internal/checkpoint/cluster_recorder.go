package checkpoint

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/target"
	"repro/internal/value"
)

// ClusterInputRecord is one logged WriteInput stimulus on a named node.
type ClusterInputRecord struct {
	At    uint64        `json:"at"`
	Node  string        `json:"node"`
	Actor string        `json:"actor"`
	Port  string        `json:"port"`
	Val   value.Encoded `json:"val"`
}

// ClusterInstrRecord is one logged host-to-target wire instruction on a
// named node's command channel.
type ClusterInstrRecord struct {
	At   uint64               `json:"at"`
	Node string               `json:"node"`
	In   protocol.Instruction `json:"in"`
}

// ClusterRecorder is the distributed counterpart of Recorder: periodic
// whole-cluster checkpoints plus per-node logs of the two
// non-deterministic input streams (environment WriteInputs and host wire
// instructions). Everything else in a cluster run — bus arbitration,
// frame loss, jitter — is drawn from the network's seeded RNG, which the
// checkpoints capture, so restoring a checkpoint and re-feeding the logs
// reproduces the distributed timeline exactly. The logs are kept in one
// global sequence: cluster execution orders all nodes on the shared
// virtual clock, so a single cursor replays events in the order they
// originally interleaved. It satisfies engine.Rewinder; attach it with
// Session.AttachRewinder.
type ClusterRecorder struct {
	Cluster *target.Cluster
	Session *engine.Session
	Serials map[string]*engine.SerialSource

	// IntervalNs is the periodic checkpoint cadence in virtual time.
	IntervalNs uint64
	// SliceNs is the replay pump granularity; it must match the live run
	// loop's slice for receive stamps to reproduce.
	SliceNs uint64
	// MaxCheckpoints bounds the retained checkpoint list (zero means
	// DefaultMaxCheckpoints). Cluster checkpoints carry every node's RAM,
	// so the cap matters more here than on a single board.
	MaxCheckpoints int

	cps    []*Checkpoint
	lastCp uint64

	inputs []ClusterInputRecord
	manual []ClusterInputRecord
	instrs []ClusterInstrRecord
	inEnv  bool

	frontier  uint64
	replaying bool
	inPtr     int
	manPtr    int
	insPtr    int

	liveEnv map[string]func(now uint64, actor string)
}

// AttachCluster interposes a recorder on every node of a cluster +
// session and takes the initial checkpoint. Attach after arming standing
// breakpoints (the initial checkpoint carries them) and after any
// restore. intervalNs zero means DefaultIntervalNs.
func AttachCluster(cl *target.Cluster, s *engine.Session, serials map[string]*engine.SerialSource, intervalNs uint64) (*ClusterRecorder, error) {
	if intervalNs == 0 {
		intervalNs = DefaultIntervalNs
	}
	r := &ClusterRecorder{
		Cluster: cl, Session: s, Serials: serials,
		IntervalNs: intervalNs, SliceNs: DefaultSliceNs,
		frontier: cl.Now(),
		liveEnv:  make(map[string]func(now uint64, actor string)),
	}
	for _, node := range cl.Nodes() {
		node := node
		b := cl.Boards[node]
		r.liveEnv[node] = b.PreLatch
		b.PreLatch = func(now uint64, actor string) { r.preLatch(node, now, actor) }
		b.OnInput = func(now uint64, actor, port string, v value.Value) { r.logInput(node, now, actor, port, v) }
		if src := serials[node]; src != nil {
			src.Tap = func(in protocol.Instruction) { r.logInstr(node, in) }
		}
	}
	if _, err := r.TakeCheckpoint(); err != nil {
		return nil, err
	}
	return r, nil
}

// Checkpoints returns the checkpoints taken so far, in time order.
func (r *ClusterRecorder) Checkpoints() []*Checkpoint { return r.cps }

// Inputs returns the logged input stimuli (diagnostics).
func (r *ClusterRecorder) Inputs() []ClusterInputRecord { return r.inputs }

// Instructions returns the logged wire instructions (diagnostics).
func (r *ClusterRecorder) Instructions() []ClusterInstrRecord { return r.instrs }

// Replaying reports whether the session is currently below the recorded
// frontier, re-executing from the logs.
func (r *ClusterRecorder) Replaying() bool { return r.replaying }

// Frontier returns the farthest instant the live timeline has reached.
func (r *ClusterRecorder) Frontier() uint64 { return r.frontier }

// Observe is the live pump's per-slice hook: it advances the frontier and
// takes a periodic checkpoint when the interval has elapsed. It is a
// no-op during replay (the checkpoints for that window already exist).
func (r *ClusterRecorder) Observe(now uint64) error {
	if r.replaying {
		if now >= r.frontier {
			r.endReplay()
		}
		return nil
	}
	if now > r.frontier {
		r.frontier = now
	}
	if now >= r.lastCp+r.IntervalNs {
		_, err := r.TakeCheckpoint()
		return err
	}
	return nil
}

// TakeCheckpoint captures the full distributed state and appends it to
// the checkpoint list, evicting the oldest periodic checkpoint (the
// initial one is always kept) once MaxCheckpoints is reached.
func (r *ClusterRecorder) TakeCheckpoint() (*Checkpoint, error) {
	cp, err := CaptureClusterSession(r.Cluster, r.Session, r.Serials)
	if err != nil {
		return nil, err
	}
	max := r.MaxCheckpoints
	if max <= 0 {
		max = DefaultMaxCheckpoints
	}
	if len(r.cps) >= max && len(r.cps) > 1 {
		r.cps = append(r.cps[:1], r.cps[2:]...)
	}
	r.cps = append(r.cps, cp)
	r.lastCp = cp.Time
	return cp, nil
}

// LastBefore returns the latest checkpoint with Time <= t, or nil.
func (r *ClusterRecorder) LastBefore(t uint64) *Checkpoint {
	i := sort.Search(len(r.cps), func(i int) bool { return r.cps[i].Time > t })
	if i == 0 {
		return nil
	}
	return r.cps[i-1]
}

// logInput is every board's OnInput hook (record mode only); writes made
// inside a node's environment hook replay at the same PreLatch site,
// writes made anywhere else land in the manual log.
func (r *ClusterRecorder) logInput(node string, now uint64, actor, port string, v value.Value) {
	if r.replaying {
		return
	}
	rec := ClusterInputRecord{At: now, Node: node, Actor: actor, Port: port, Val: value.Encode(v)}
	if r.inEnv {
		r.inputs = append(r.inputs, rec)
	} else {
		r.manual = append(r.manual, rec)
	}
}

// logInstr is each node's serial-source Tap hook (record mode only).
func (r *ClusterRecorder) logInstr(node string, in protocol.Instruction) {
	if r.replaying {
		return
	}
	r.instrs = append(r.instrs, ClusterInstrRecord{At: r.Cluster.Now(), Node: node, In: in})
}

// preLatch replaces each node's environment hook: in record mode the live
// environment runs (writes logged via OnInput); in replay mode the logged
// writes for this (instant, node, actor) release site are re-applied
// instead. Cluster execution calls the sites in a deterministic order on
// the shared clock, so a single cursor consumes the log in original order.
func (r *ClusterRecorder) preLatch(node string, now uint64, actor string) {
	if r.replaying && now <= r.frontier {
		for r.inPtr < len(r.inputs) && r.inputs[r.inPtr].At < now {
			r.inPtr++
		}
		for r.inPtr < len(r.inputs) {
			ir := r.inputs[r.inPtr]
			if ir.At != now || ir.Node != node || ir.Actor != actor {
				break
			}
			v, err := value.Decode(ir.Val)
			if err == nil {
				_ = r.Cluster.Boards[ir.Node].WriteInput(ir.Actor, ir.Port, v)
			}
			r.inPtr++
		}
		return
	}
	if r.replaying {
		r.endReplay()
	}
	if env := r.liveEnv[node]; env != nil {
		r.inEnv = true
		env(now, actor)
		r.inEnv = false
	}
}

func (r *ClusterRecorder) endReplay() {
	r.replaying = false
	r.Session.SetReplaying(false)
}

func (r *ClusterRecorder) beginReplay(now uint64) {
	r.replaying = true
	r.Session.SetReplaying(true)
	r.inPtr = sort.Search(len(r.inputs), func(i int) bool { return r.inputs[i].At >= now })
	r.manPtr = sort.Search(len(r.manual), func(i int) bool { return r.manual[i].At >= now })
	r.insPtr = sort.Search(len(r.instrs), func(i int) bool { return r.instrs[i].At >= now })
}

// applyManual re-injects stimuli that were written outside environment
// hooks, at the pump boundary where the original write sat between run
// slices, routed to the node that originally received them.
func (r *ClusterRecorder) applyManual(now uint64) {
	for r.manPtr < len(r.manual) && r.manual[r.manPtr].At < now {
		r.manPtr++
	}
	for r.manPtr < len(r.manual) && r.manual[r.manPtr].At == now {
		ir := r.manual[r.manPtr]
		if v, err := value.Decode(ir.Val); err == nil {
			_ = r.Cluster.Boards[ir.Node].WriteInput(ir.Actor, ir.Port, v)
		}
		r.manPtr++
	}
}

// sendLogged re-injects every logged instruction stamped exactly now on
// its original node's command channel.
func (r *ClusterRecorder) sendLogged(now uint64) {
	for r.insPtr < len(r.instrs) && r.instrs[r.insPtr].At < now {
		r.insPtr++
	}
	for r.insPtr < len(r.instrs) && r.instrs[r.insPtr].At == now {
		rec := r.instrs[r.insPtr]
		if src := r.Serials[rec.Node]; src != nil {
			_ = src.Resend(rec.In)
			switch rec.In.Type {
			case protocol.InPause:
				r.Session.SetPausedState(true)
			case protocol.InResume, protocol.InStep:
				r.Session.SetPausedState(false)
			}
		}
		r.insPtr++
	}
}

// pumpTo re-executes the cluster forward to exactly t on the same
// absolute slice grid the live run loop uses, so replayed receive stamps
// reproduce. A partial tail below the next grid point advances the
// cluster silently — events raised there stay on the wire, just as they
// were in-flight at that instant originally.
func (r *ClusterRecorder) pumpTo(t uint64) error {
	for r.Cluster.Now() < t {
		now := r.Cluster.Now()
		if r.replaying {
			r.sendLogged(now)
			r.applyManual(now)
		}
		next := (now/r.SliceNs + 1) * r.SliceNs
		if next > t {
			r.Cluster.RunUntil(t)
			return nil
		}
		r.Cluster.RunUntil(next)
		if _, err := r.Session.ProcessEvents(r.Cluster.Now()); err != nil {
			return err
		}
		if err := r.Observe(r.Cluster.Now()); err != nil {
			return err
		}
	}
	return nil
}

// RewindTo implements engine.Rewinder for a distributed session: restore
// the latest whole-cluster checkpoint at or before t, then
// deterministically re-execute forward to exactly t.
func (r *ClusterRecorder) RewindTo(t uint64) (uint64, error) {
	cp := r.LastBefore(t)
	if cp == nil {
		return 0, fmt.Errorf("checkpoint: no cluster checkpoint at or before t=%d", t)
	}
	if err := ApplyClusterSession(cp, r.Cluster, r.Session, r.Serials); err != nil {
		return 0, err
	}
	r.beginReplay(r.Cluster.Now())
	if err := r.pumpTo(t); err != nil {
		return r.Cluster.Now(), err
	}
	if r.Cluster.Now() >= r.frontier {
		r.endReplay()
	}
	return r.Cluster.Now(), nil
}

// ReplayUntil implements engine.Rewinder: re-execute forward from the
// current (typically rewound) instant until cond reports true, bounded by
// maxNs of virtual time. cond is checked at pump-slice boundaries.
func (r *ClusterRecorder) ReplayUntil(cond func(now uint64) bool, maxNs uint64) (bool, error) {
	if r.Cluster.Now() < r.frontier && !r.replaying {
		r.beginReplay(r.Cluster.Now())
	}
	limit := r.Cluster.Now() + maxNs
	for {
		if cond(r.Cluster.Now()) {
			return true, nil
		}
		if r.Cluster.Now() >= limit {
			return false, nil
		}
		next := (r.Cluster.Now()/r.SliceNs + 1) * r.SliceNs
		if next > limit {
			next = limit
		}
		if err := r.pumpTo(next); err != nil {
			return false, err
		}
	}
}
