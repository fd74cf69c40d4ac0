package campaign

import (
	"fmt"
	"sort"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/dtm"
	"repro/internal/trace"
	"repro/models"
)

// runner is one worker's warm simulator instance: built once, then
// rewound to a fresh fork of the base checkpoint for every variant it
// executes. Instances are never shared between workers.
type runner interface {
	// fork rewinds the instance to the base checkpoint with the variant's
	// parameters applied and a fresh (arena-backed) trace installed.
	fork(v variant) error
	// run advances ns of virtual time post-fork.
	run(ns uint64) error
	// observe evaluates the variant's post-fork observations.
	observe(v variant) (VariantResult, error)
	// traceText renders the events collected since the last fork.
	traceText() string
}

// zeroTaskAccounting clears the accounting fields of a cloned scheduler
// state so post-restore counters measure the variant's window alone.
// Rhythm fields (NextRelease, RelSeq) are behavioral and stay.
func zeroTaskAccounting(tasks []dtm.TaskState) {
	for i := range tasks {
		t := &tasks[i]
		t.Releases, t.DeadlineMisses = 0, 0
		t.ExecNs, t.WorstNs = 0, 0
		t.Suspensions, t.Preemptions = 0, 0
		t.ResponseNs, t.WorstResponseNs = 0, 0
	}
}

// zeroBusAccounting clears a cloned network state's counters (Queued is
// the live TX depth and stays — departures decrement it).
func zeroBusAccounting(st *dtm.NetworkState) {
	st.Sent, st.Dropped = 0, 0
	for node, bs := range st.Stats {
		bs.Enqueued, bs.Delivered, bs.Dropped, bs.WorstQueueNs = 0, 0, 0, 0
		st.Stats[node] = bs
	}
}

// boardRunner drives single-board variants (priority-assignment sweeps).
type boardRunner struct {
	spec     *Spec
	dbg      *repro.Debugger
	base     *checkpoint.Checkpoint
	arena    *trace.Arena
	progName string // the session trace's program label
	fixed    bool   // FixedPriority policy: run RTA per variant
}

func newBoardRunner(spec *Spec, prog *codegen.Program, base *checkpoint.Checkpoint, arena *trace.Arena) (*boardRunner, error) {
	sys, err := models.ByName(spec.Model)
	if err != nil {
		return nil, err
	}
	cfg := repro.DebugConfig{
		Transport:   repro.Active,
		Board:       repro.StandardBoardConfig(spec.Model),
		Environment: repro.StandardEnvironment(spec.Model),
		Program:     prog,
	}
	dbg, err := repro.Debug(sys, cfg)
	if err != nil {
		return nil, err
	}
	return &boardRunner{
		spec: spec, dbg: dbg, base: base, arena: arena,
		progName: dbg.Session.Trace.Program,
		fixed:    cfg.Board.Sched == dtm.FixedPriority,
	}, nil
}

func (r *boardRunner) fork(v variant) error {
	cp := r.base.Clone()
	zeroTaskAccounting(cp.Board.Sched.Tasks)
	if cp.Host != nil {
		// Drop the warm trace: the restore would replay it through the
		// GDM, and the variant's observations start at the fork.
		cp.Host.Session.Trace = nil
		cp.Host.Session.Handled = 0
	}
	// Priorities are code-level (task registration), not checkpoint
	// state: apply the permutation before the restore so the rebuilt
	// ready queue orders under the variant's assignment.
	if v.Prios != nil {
		for _, t := range r.dbg.Board.Tasks() {
			if p, ok := v.Prios[t.Name]; ok {
				t.Priority = p
			}
		}
	}
	r.arena.Recycle(r.dbg.Session.Trace)
	if err := r.dbg.RestoreCheckpoint(cp); err != nil {
		return err
	}
	r.dbg.Session.Trace = r.arena.NewTrace(r.progName)
	return nil
}

func (r *boardRunner) run(ns uint64) error { return r.dbg.RunNs(ns) }

func (r *boardRunner) observe(v variant) (VariantResult, error) {
	res := VariantResult{Index: v.Index, Seed: v.Seed, Prios: v.Prios}
	var rta []dtm.RTAResult
	if r.fixed {
		var err error
		rta, err = r.dbg.Board.ResponseTimeAnalysis()
		if err != nil {
			return res, fmt.Errorf("rta: %w", err)
		}
	}
	res.Tasks = observeTasks("", r.dbg.Board.Tasks(), rta)
	res.Violations = violations(r.spec, res.Tasks, 0)
	return res, nil
}

func (r *boardRunner) traceText() string { return r.dbg.Session.Trace.FormatStable() }

// clusterRunner drives distributed variants (bus seed / loss / jitter /
// slot-rotation sweeps) on the one serial cluster kernel: campaign
// parallelism is across variants, not within one.
type clusterRunner struct {
	spec     *Spec
	dbg      *repro.Debugger
	base     *checkpoint.Checkpoint
	arena    *trace.Arena
	progName string
	nodes    []string
}

func newClusterRunner(spec *Spec, base *checkpoint.Checkpoint, arena *trace.Arena) (*clusterRunner, error) {
	dbg, err := buildCluster(spec)
	if err != nil {
		return nil, err
	}
	return &clusterRunner{
		spec: spec, dbg: dbg, base: base, arena: arena,
		progName: dbg.Session.Trace.Program,
		nodes:    dbg.Cluster.Nodes(),
	}, nil
}

func buildCluster(spec *Spec) (*repro.Debugger, error) {
	sys, err := models.ByName(spec.Model)
	if err != nil {
		return nil, err
	}
	return repro.DebugCluster(sys, repro.ClusterDebugConfig{
		Cluster: repro.StandardClusterConfig(sys.Nodes(), 0),
	})
}

// variantSchedule derives the variant's TDMA schedule from the base one.
func variantSchedule(base *dtm.BusSchedule, v variant) *dtm.BusSchedule {
	s := base.Clone()
	s.Seed = v.Seed
	if v.HasLoss {
		s.LossPerMille = v.Loss
	}
	if v.HasJit {
		s.JitterNs = v.JitterNs
	}
	if v.Rotation > 0 {
		n := len(s.Slots)
		for i := range s.Slots {
			s.Slots[i].Owner = base.Slots[(i+v.Rotation)%n].Owner
		}
	}
	return s
}

func (r *clusterRunner) fork(v variant) error {
	cp := r.base.Clone()
	for _, bs := range cp.Cluster.Boards {
		zeroTaskAccounting(bs.Sched.Tasks)
	}
	zeroBusAccounting(&cp.Cluster.Net)
	if cp.ClusterHost != nil {
		cp.ClusterHost.Session.Trace = nil
		cp.ClusterHost.Session.Handled = 0
	}
	// Re-parameterise the bus: the variant schedule replaces the installed
	// one (SetSchedule restarts the jitter/loss RNG on the variant seed),
	// the clone's captured schedule is mutated to match so the restore's
	// schedule-identity check passes, and the clone's RNG state is pinned
	// to the variant stream (Network.Restore would otherwise rewind it to
	// the warm-up's position).
	sched := variantSchedule(r.base.Cluster.Net.Sched, v)
	cp.Cluster.Net.Sched = sched
	cp.Cluster.Net.RNG = v.Seed
	net := r.dbg.Cluster.Net
	net.DropInflight()
	if err := net.SetSchedule(sched); err != nil {
		return fmt.Errorf("variant %d schedule: %w", v.Index, err)
	}
	r.arena.Recycle(r.dbg.Session.Trace)
	if err := r.dbg.RestoreCheckpoint(cp); err != nil {
		return err
	}
	r.dbg.Session.Trace = r.arena.NewTrace(r.progName)
	return nil
}

func (r *clusterRunner) run(ns uint64) error { return r.dbg.RunNs(ns) }

func (r *clusterRunner) observe(v variant) (VariantResult, error) {
	res := VariantResult{Index: v.Index, Seed: v.Seed, Rotation: v.Rotation}
	if v.HasLoss {
		res.Loss = v.Loss
	}
	if v.HasJit {
		res.JitterNs = v.JitterNs
	}
	var obs []TaskObs
	res.Bus = map[string]dtm.BusStats{}
	var drops uint64
	for _, node := range r.nodes {
		obs = append(obs, observeTasks(node, r.dbg.Cluster.Boards[node].Tasks(), nil)...)
		if bs, ok := r.dbg.BusStats(node); ok {
			res.Bus[node] = bs
			drops += bs.Dropped
		}
	}
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].Node != obs[j].Node {
			return obs[i].Node < obs[j].Node
		}
		return obs[i].Task < obs[j].Task
	})
	res.Tasks = obs
	res.Drops = drops
	res.Violations = violations(r.spec, res.Tasks, drops)
	return res, nil
}

func (r *clusterRunner) traceText() string { return r.dbg.Session.Trace.FormatStable() }
