package campaign

import (
	"fmt"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/dsl"
	"repro/internal/dtm"
	"repro/internal/trace"
)

// runner is one worker's warm simulator instance: built once, then
// restored to the shared base checkpoint for every variant it executes.
// Instances are never shared between workers. One runner drives every
// node of its session, a board or a cluster: parallelism is across
// variants, not within one.
type runner struct {
	spec *Spec
	dbg  *repro.Debugger
	base *checkpoint.Checkpoint
	// trace is the variant trace every fork resets and installs, so its
	// storage is reused from variant to variant.
	trace *trace.Trace
	nodes []string
}

func newRunner(spec *Spec, sc *dsl.Scenario, prog *codegen.Program, base *checkpoint.Checkpoint) (*runner, error) {
	dbg, err := sc.Debug(repro.Active, prog)
	if err != nil {
		return nil, err
	}
	return &runner{
		spec: spec, dbg: dbg, base: base,
		trace: trace.New(dbg.Session.Trace.Program),
		nodes: dbg.Nodes(),
	}, nil
}

// zeroTaskAccounting clears the accounting fields of the base
// checkpoint's scheduler state so post-restore counters measure the
// variant's window alone. Rhythm fields (NextRelease, RelSeq) are
// behavioral and stay.
func zeroTaskAccounting(tasks []dtm.TaskState) {
	for i := range tasks {
		t := &tasks[i]
		t.Releases, t.DeadlineMisses = 0, 0
		t.ExecNs, t.WorstNs = 0, 0
		t.Suspensions, t.Preemptions = 0, 0
		t.ResponseNs, t.WorstResponseNs = 0, 0
	}
}

// zeroBusAccounting clears the base checkpoint's network counters (Queued
// is the live TX depth and stays — departures decrement it).
func zeroBusAccounting(st *dtm.NetworkState) {
	st.Sent, st.Dropped = 0, 0
	for node, bs := range st.Stats {
		bs.Enqueued, bs.Delivered, bs.Dropped, bs.WorstQueueNs = 0, 0, 0, 0
		st.Stats[node] = bs
	}
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

// fork rewinds the instance to the base checkpoint with the variant's
// parameters applied and the runner's trace, emptied, installed. The base
// is shared by every worker and never written: a restore copies state in.
func (r *runner) fork(v variant) error {
	// Priorities are code-level (task registration), not checkpoint
	// state: apply the permutation before the restore so the rebuilt
	// ready queue orders under the variant's assignment.
	if v.Prios != nil {
		for _, node := range r.nodes {
			for _, t := range r.dbg.Node(node).Tasks() {
				if p, ok := v.Prios[t.Name]; ok {
					t.Priority = p
				}
			}
		}
	}
	cp := r.base
	if net := r.base.Net(); net != nil {
		// Re-parameterise the bus: the variant schedule replaces the
		// installed one (SetSchedule restarts the jitter/loss RNG on the
		// variant seed). The restored state carries the same schedule, so
		// the restore's schedule-identity check passes, and its RNG is
		// pinned to the variant stream (Network.Restore would otherwise
		// rewind it to the warm-up's position). Both go on shallow copies
		// of the Checkpoint and ClusterState structs; their maps and
		// slices stay the base's, read-only.
		sched := variantSchedule(net.Sched, v)
		live := r.dbg.Cluster.Net
		live.DropInflight()
		if err := live.SetSchedule(sched); err != nil {
			return fmt.Errorf("variant %d schedule: %w", v.Index, err)
		}
		cl := *r.base.Cluster
		cl.Net.Sched, cl.Net.RNG = sched, v.Seed
		fork := *r.base
		fork.Cluster = &cl
		cp = &fork
	}
	if err := r.dbg.RestoreCheckpoint(cp); err != nil {
		return err
	}
	r.trace.Reset()
	r.dbg.Session.Trace = r.trace
	return nil
}

// run advances ns of virtual time post-fork.
func (r *runner) run(ns uint64) error { return r.dbg.RunNs(ns) }

// observe evaluates the variant's post-fork observations: every node's
// tasks (with RTA verdicts on FixedPriority boards) and, on a cluster,
// every node's bus accounting.
func (r *runner) observe(v variant) (VariantResult, error) {
	res := VariantResult{Index: v.Index, Seed: v.Seed, Rotation: v.Rotation, Prios: v.Prios}
	if v.HasLoss {
		res.Loss = v.Loss
	}
	if v.HasJit {
		res.JitterNs = v.JitterNs
	}
	for _, node := range r.nodes {
		b := r.dbg.Node(node)
		var rta []dtm.RTAResult
		if b.Policy() == dtm.FixedPriority {
			var err error
			if rta, err = b.ResponseTimeAnalysis(); err != nil {
				return res, fmt.Errorf("rta: %w", err)
			}
		}
		label := ""
		if r.dbg.Cluster != nil {
			label = node
		}
		res.Tasks = append(res.Tasks, observeTasks(label, b.Tasks(), rta)...)
		if bs, ok := r.dbg.BusStats(node); ok {
			if res.Bus == nil {
				res.Bus = map[string]dtm.BusStats{}
			}
			res.Bus[node] = bs
			res.Drops += bs.Dropped
		}
	}
	res.Violations = violations(r.spec, res.Tasks, res.Drops)
	return res, nil
}

// traceText renders the events collected since the last fork.
func (r *runner) traceText() string { return r.dbg.Session.Trace.FormatStable() }
