package dtm

import "fmt"

// Exact response-time analysis for the FixedPriority policy — the
// schedulability check that closes the loop between the DTM theory and the
// measured WorstNs/WorstResponseNs accounting: feed the analysis the
// worst-case execution times the boards observed (or budgeted) and it
// predicts, per task, the worst-case release-to-completion response and
// whether every deadline is provably met.

// RTAResult is one task's verdict.
type RTAResult struct {
	Task string
	// WCETNs is the execution-time bound the analysis used (Task.WorstNs
	// plus the context-switch charge).
	WCETNs uint64
	// ResponseNs is the computed worst-case response time. For an
	// unschedulable task it is the first fixpoint iterate that exceeded the
	// deadline — a lower bound on the true (possibly unbounded) response.
	ResponseNs  uint64
	Schedulable bool
}

// ResponseTimeAnalysis runs the classic exact fixpoint iteration
//
//	R_i = C_i + B_i + Σ_{j ∈ hp(i)} ⌈R_i / T_j⌉ · C_j
//
// over the task set, with C_i = WorstNs_i + 2·ctxNs (every job pays at
// most one switch in and one switch back) and B_i the release-order
// blocking of equal-priority peers (FIFO within a priority: one job of
// every equal-priority task can sit ahead of a release). With ctxNs = 0
// and exact WCETs the bound is tight for the scheduler's critical instant
// (all offsets equal): the observed WorstResponseNs converges to R_i.
//
// The analysis requires constrained deadlines (Deadline <= Period, which
// Task.Validate already enforces) and uses Task.WorstNs as the WCET — run
// the simulation first, or set WorstNs to the budgeted bound.
func ResponseTimeAnalysis(tasks []*Task, ctxNs uint64) ([]RTAResult, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("dtm: response-time analysis of empty task set")
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	cost := func(t *Task) uint64 { return t.WorstNs + 2*ctxNs }
	out := make([]RTAResult, 0, len(tasks))
	for _, t := range tasks {
		c := cost(t)
		var blocking uint64
		for _, o := range tasks {
			if o != t && o.Priority == t.Priority {
				blocking += cost(o)
			}
		}
		res := RTAResult{Task: t.Name, WCETNs: c, Schedulable: true}
		r := c + blocking
		for {
			var interf uint64
			for _, o := range tasks {
				if o.Priority > t.Priority {
					interf += (r + o.Period - 1) / o.Period * cost(o)
				}
			}
			next := c + blocking + interf
			if next > t.Deadline {
				res.ResponseNs, res.Schedulable = next, false
				break
			}
			if next == r {
				res.ResponseNs = r
				break
			}
			r = next
		}
		out = append(out, res)
	}
	return out, nil
}

// ResponseTimeAnalysis applies the analysis to the scheduler's registered
// task set with its configured context-switch cost.
func (s *Scheduler) ResponseTimeAnalysis() ([]RTAResult, error) {
	return ResponseTimeAnalysis(s.tasks, s.CtxSwitchNs)
}

// Schedulable reports whether every task in an analysis result passed.
func Schedulable(results []RTAResult) bool {
	for _, r := range results {
		if !r.Schedulable {
			return false
		}
	}
	return true
}
