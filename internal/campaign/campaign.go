// Package campaign runs Monte Carlo schedulability experiments: N
// parameter variants of one model, all forked from a single warm
// checkpoint and executed across every core. The paper's debugger proves
// a property with one deterministic run; a campaign turns that into
// evidence at fleet scale — thousands of seeded runs whose observed
// worst response times, deadline misses and frame drops are aggregated
// against dtm.ResponseTimeAnalysis bounds, with every bound-violating
// variant auto-shrunk to a minimal repro trace.
//
// Three performance layers keep the fleet CPU-bound instead of
// allocation-bound:
//
//   - a fork is a restore of the one shared base checkpoint, with no
//     copy and no serialization: Restore copies state in and never
//     writes its input, so every worker restores the same base at once.
//     Edits every variant shares (zeroed accounting, dropped warm trace)
//     are made once, on the base; a variant's bus parameters go on
//     shallow copies of the checkpoint structs;
//   - workers take variants one at a time from one shared counter, so
//     heterogeneous runtimes — a variant that trips its shrink search
//     next to one that runs clean — balance across workers;
//   - each worker keeps one warm simulator instance and one trace, reset
//     at every fork, so per-variant setup is a restore, not a rebuild.
//
// The model runs as the scenario it is (dsl.FromSystem), so a campaign
// session is built exactly as `gmdf -model` and the farm build it: one
// board or a TDMA cluster, chosen by the scenario. One runner serves
// both: the base has every node's task accounting zeroed and, when the
// session has a bus, a fork installs the variant's bus schedule; an
// observation runs RTA on every FixedPriority board. A one-node model
// compiles once per campaign and every worker's instance shares the
// program.
//
// Determinism contract: the aggregate is a pure function of (model,
// spec); it contains no worker count, no wall-clock time, and results
// are indexed by variant, so one worker or many produce byte-identical
// aggregate JSON.
package campaign

import (
	"fmt"
	"sort"

	"repro/internal/dtm"
)

// Spec parameterises one campaign.
type Spec struct {
	// Model names a built-in model (models.ByName). Models whose standard
	// environment is stateful (heating) are rejected: the plant state
	// lives outside the checkpoint, so a forked variant would resume
	// against a plant that never saw the warm-up — those models need the
	// in-process recorder instead.
	Model string `json:"model"`
	// Variants is the fleet size.
	Variants int `json:"variants"`
	// Seed derives every variant's parameter draws (splitmix64 streams).
	Seed uint64 `json:"seed"`
	// WarmNs is the shared warm-up run all variants fork from.
	WarmNs uint64 `json:"warmNs"`
	// RunNs is each variant's post-fork run budget.
	RunNs uint64 `json:"runNs"`
	// Workers is how many variants run at once (<=0: GOMAXPROCS). It
	// does not appear in the aggregate and cannot change it.
	Workers int `json:"-"`

	// Loss, when non-empty, sweeps the TDMA bus loss rate (per-mille):
	// each variant draws one entry. Cluster models only.
	Loss []uint32 `json:"loss,omitempty"`
	// JitterNs, when non-empty, sweeps the bus release jitter bound.
	// Cluster models only; every entry must stay below the shortest slot.
	JitterNs []uint64 `json:"jitterNs,omitempty"`
	// RotateSlots additionally rotates the TDMA slot-owner assignment by a
	// per-variant draw. Cluster models only.
	RotateSlots bool `json:"rotateSlots,omitempty"`
	// ShufflePriorities permutes the task priority assignment per variant
	// (FixedPriority boards). The permutation is applied at the fork
	// instant: jobs already queued keep their positions, future dispatches
	// follow the variant's priorities, and the RTA bounds are recomputed
	// under the permuted assignment.
	ShufflePriorities bool `json:"shufflePriorities,omitempty"`

	// MissBudget is the per-task deadline-miss tolerance: a task the
	// variant's RTA calls schedulable (or any task on a cooperative
	// board) that misses more than MissBudget deadlines post-fork is a
	// violation. Negative disables the check.
	MissBudget int64 `json:"missBudget"`
	// DropBudget is the cluster-wide frame-drop tolerance. Negative
	// disables the check.
	DropBudget int64 `json:"dropBudget"`

	// Shrink enables the repro search: each violating variant (up to
	// MaxRepros, lowest indexes first) is re-forked and binary-searched to
	// the shortest 1 ms-grid run window that still violates, and that
	// window's event trace is attached to the result.
	Shrink bool `json:"shrink,omitempty"`
	// MaxRepros caps the shrink searches (default 3).
	MaxRepros int `json:"maxRepros,omitempty"`
}

// TaskObs is one task's post-fork observation under one variant.
type TaskObs struct {
	Node            string `json:"node,omitempty"`
	Task            string `json:"task"`
	Releases        uint64 `json:"releases"`
	Misses          uint64 `json:"misses"`
	Preemptions     uint64 `json:"preemptions,omitempty"`
	WorstNs         uint64 `json:"worstNs,omitempty"`
	WorstResponseNs uint64 `json:"worstResponseNs,omitempty"`

	// BoundNs and Schedulable carry the variant's RTA verdict (RTA is
	// true when analysis ran — FixedPriority boards only).
	RTA         bool   `json:"rta,omitempty"`
	BoundNs     uint64 `json:"boundNs,omitempty"`
	Schedulable bool   `json:"schedulable,omitempty"`
}

// VariantResult is one variant's parameters and observations.
type VariantResult struct {
	Index    int            `json:"index"`
	Seed     uint64         `json:"seed"`
	Loss     uint32         `json:"loss,omitempty"`
	JitterNs uint64         `json:"jitterNs,omitempty"`
	Rotation int            `json:"rotation,omitempty"`
	Prios    map[string]int `json:"priorities,omitempty"`

	Tasks []TaskObs               `json:"tasks,omitempty"`
	Bus   map[string]dtm.BusStats `json:"bus,omitempty"`
	Sent  uint64                  `json:"sent,omitempty"`
	Drops uint64                  `json:"drops,omitempty"`

	Violations []string `json:"violations,omitempty"`
	// ShrunkNs is the minimal post-fork window that still violates
	// (Shrink only).
	ShrunkNs uint64 `json:"shrunkNs,omitempty"`
	// ReproTrace is the stable-format event trace of the minimal window.
	ReproTrace string `json:"reproTrace,omitempty"`

	Error string `json:"error,omitempty"`
}

// TaskSummary aggregates one task across the whole fleet.
type TaskSummary struct {
	Node               string `json:"node,omitempty"`
	Task               string `json:"task"`
	MaxWorstResponseNs uint64 `json:"maxWorstResponseNs,omitempty"`
	TotalMisses        uint64 `json:"totalMisses"`
	VariantsMissed     int    `json:"variantsMissed"`
}

// Summary is the fleet-level rollup.
type Summary struct {
	Violating  int           `json:"violating"`
	Errors     int           `json:"errors"`
	TotalDrops uint64        `json:"totalDrops,omitempty"`
	Tasks      []TaskSummary `json:"tasks"`
}

// Aggregate is the campaign's complete, deterministic output.
type Aggregate struct {
	Model    string          `json:"model"`
	Variants int             `json:"variants"`
	Seed     uint64          `json:"seed"`
	WarmNs   uint64          `json:"warmNs"`
	RunNs    uint64          `json:"runNs"`
	Results  []VariantResult `json:"results"`
	Summary  Summary         `json:"summary"`
}

// splitmix64 is the variant parameter stream: every draw advances the
// state by the golden gamma and mixes it. Deterministic, seedable, and
// independent per variant (each variant's stream starts at a distinct
// offset of the campaign seed).
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// variant is one planned parameter assignment.
type variant struct {
	Index    int
	Seed     uint64
	Loss     uint32
	HasLoss  bool
	JitterNs uint64
	HasJit   bool
	Rotation int
	// Prios maps task name -> priority (ShufflePriorities only).
	Prios map[string]int
}

// planVariants derives every variant's parameters from the campaign seed
// alone. taskNames (sorted) and basePrios describe the board's task set
// for priority shuffling; slots is the TDMA slot count for rotation.
func planVariants(spec *Spec, taskNames []string, basePrios []int, slots int) []variant {
	out := make([]variant, spec.Variants)
	for i := range out {
		st := spec.Seed + uint64(i+1)*0x9e3779b97f4a7c15
		v := variant{Index: i, Seed: splitmix64(&st)}
		if len(spec.Loss) > 0 {
			v.Loss = spec.Loss[splitmix64(&st)%uint64(len(spec.Loss))]
			v.HasLoss = true
		}
		if len(spec.JitterNs) > 0 {
			v.JitterNs = spec.JitterNs[splitmix64(&st)%uint64(len(spec.JitterNs))]
			v.HasJit = true
		}
		if spec.RotateSlots && slots > 1 {
			v.Rotation = int(splitmix64(&st) % uint64(slots))
		}
		if spec.ShufflePriorities && len(taskNames) > 1 {
			perm := append([]int(nil), basePrios...)
			// Fisher-Yates over the priority multiset, seeded per variant.
			for j := len(perm) - 1; j > 0; j-- {
				k := int(splitmix64(&st) % uint64(j+1))
				perm[j], perm[k] = perm[k], perm[j]
			}
			v.Prios = make(map[string]int, len(taskNames))
			for j, name := range taskNames {
				v.Prios[name] = perm[j]
			}
		}
		out[i] = v
	}
	return out
}

// observeTasks converts a board's task table into per-variant
// observations (the fork zeroed the accounting, so counters are
// post-fork), attaching RTA verdicts when analysis ran.
func observeTasks(node string, tasks []*dtm.Task, rta []dtm.RTAResult) []TaskObs {
	byName := map[string]dtm.RTAResult{}
	for _, r := range rta {
		byName[r.Task] = r
	}
	obs := make([]TaskObs, 0, len(tasks))
	for _, t := range tasks {
		o := TaskObs{
			Node: node, Task: t.Name,
			Releases: t.Releases, Misses: t.DeadlineMisses,
			Preemptions: t.Preemptions, WorstNs: t.WorstNs,
			WorstResponseNs: t.WorstResponseNs,
		}
		if r, ok := byName[t.Name]; ok {
			o.RTA = true
			o.BoundNs = r.ResponseNs
			o.Schedulable = r.Schedulable
		}
		obs = append(obs, o)
	}
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].Node != obs[j].Node {
			return obs[i].Node < obs[j].Node
		}
		return obs[i].Task < obs[j].Task
	})
	return obs
}

// violations evaluates the campaign's acceptance predicates over one
// variant's observations. The list is deterministic (observation order)
// and every predicate is monotone in the run window — counters only grow
// — which is what makes the shrink search a valid binary search.
func violations(spec *Spec, obs []TaskObs, drops uint64) []string {
	var out []string
	prefix := func(o TaskObs) string {
		if o.Node != "" {
			return o.Node + "/" + o.Task
		}
		return o.Task
	}
	for _, o := range obs {
		if spec.MissBudget >= 0 && int64(o.Misses) > spec.MissBudget {
			switch {
			case o.RTA && o.Schedulable:
				out = append(out, fmt.Sprintf("%s: %d deadline misses on an RTA-schedulable task (budget %d)",
					prefix(o), o.Misses, spec.MissBudget))
			case !o.RTA:
				out = append(out, fmt.Sprintf("%s: %d deadline misses (budget %d)",
					prefix(o), o.Misses, spec.MissBudget))
			}
		}
		if o.RTA && o.Schedulable && o.BoundNs > 0 && o.WorstResponseNs > o.BoundNs {
			out = append(out, fmt.Sprintf("%s: observed worst response %d ns exceeds RTA bound %d ns",
				prefix(o), o.WorstResponseNs, o.BoundNs))
		}
	}
	if spec.DropBudget >= 0 && int64(drops) > spec.DropBudget {
		out = append(out, fmt.Sprintf("bus: %d frames dropped (budget %d)", drops, spec.DropBudget))
	}
	return out
}

// summarize rolls the per-variant results into the fleet summary.
func summarize(results []VariantResult) Summary {
	s := Summary{}
	type key struct{ node, task string }
	agg := map[key]*TaskSummary{}
	var order []key
	for _, r := range results {
		if r.Error != "" {
			s.Errors++
		}
		if len(r.Violations) > 0 {
			s.Violating++
		}
		s.TotalDrops += r.Drops
		for _, o := range r.Tasks {
			k := key{o.Node, o.Task}
			ts, ok := agg[k]
			if !ok {
				ts = &TaskSummary{Node: o.Node, Task: o.Task}
				agg[k] = ts
				order = append(order, k)
			}
			if o.WorstResponseNs > ts.MaxWorstResponseNs {
				ts.MaxWorstResponseNs = o.WorstResponseNs
			}
			ts.TotalMisses += o.Misses
			if o.Misses > 0 {
				ts.VariantsMissed++
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].node != order[j].node {
			return order[i].node < order[j].node
		}
		return order[i].task < order[j].task
	})
	s.Tasks = make([]TaskSummary, 0, len(order))
	for _, k := range order {
		s.Tasks = append(s.Tasks, *agg[k])
	}
	return s
}
