package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/dsl"
	"repro/models"
)

// Run executes a campaign: warm one instance of the model for
// Spec.WarmNs, capture the checkpoint, then fork/run/observe
// Spec.Variants parameter variants of it across Spec.Workers workers.
// The returned aggregate is a pure function of the spec — worker count
// and scheduling order cannot change a byte of it.
func Run(spec Spec) (*Aggregate, error) {
	if spec.Variants <= 0 {
		return nil, fmt.Errorf("campaign: Variants must be positive (got %d)", spec.Variants)
	}
	if spec.RunNs == 0 {
		return nil, fmt.Errorf("campaign: RunNs must be positive")
	}
	if spec.MaxRepros <= 0 {
		spec.MaxRepros = 3
	}
	if repro.StatefulEnvironment(spec.Model) {
		return nil, fmt.Errorf("campaign: model %q has environment state outside the checkpoint (the plant lives host-side); forked variants would resume against a plant that never saw the warm-up", spec.Model)
	}
	sys, err := models.ByName(spec.Model)
	if err != nil {
		return nil, err
	}
	sc := dsl.FromSystem(sys)
	clustered := sc.Multi()
	if !clustered && (len(spec.Loss) > 0 || len(spec.JitterNs) > 0 || spec.RotateSlots) {
		return nil, fmt.Errorf("campaign: bus sweeps (loss/jitter/rotation) need a multi-node model; %q is single-board", spec.Model)
	}
	if clustered && spec.ShufflePriorities {
		return nil, fmt.Errorf("campaign: priority shuffling is single-board only (cluster task sets are per node)")
	}

	// Build the coordinator instance, warm it, capture the shared base
	// checkpoint. The coordinator then serves as worker 0's runner; every
	// runner shares the one program compiled here (a cluster compiles per
	// node and has none).
	prog, err := sc.Program()
	if err != nil {
		return nil, err
	}
	coord, err := newRunner(&spec, sc, prog, nil)
	if err != nil {
		return nil, err
	}
	if spec.WarmNs > 0 {
		if err := coord.dbg.RunNs(spec.WarmNs); err != nil {
			return nil, fmt.Errorf("campaign: warm-up: %w", err)
		}
	}
	base, err := coord.dbg.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("campaign: base checkpoint: %w", err)
	}
	coord.base = base
	// Edits every variant shares happen once, here: zero the accounting
	// so post-restore counters measure the variant's window alone, and
	// drop the warm trace (the restore would replay it through the GDM;
	// a variant's observations start at the fork). From here on the base
	// is read-only.
	for _, node := range coord.nodes {
		zeroTaskAccounting(base.Node(node).Sched.Tasks)
	}
	if s := base.Session(); s != nil {
		s.Trace, s.Handled = nil, 0
	}
	var slots int
	if net := base.Net(); net != nil {
		zeroBusAccounting(net)
		bus := net.Sched
		if bus == nil {
			return nil, fmt.Errorf("campaign: model %q has no TDMA schedule; bus campaigns need one", spec.Model)
		}
		slots = len(bus.Slots)
		shortest := ^uint64(0)
		for _, s := range bus.Slots {
			if s.LenNs < shortest {
				shortest = s.LenNs
			}
		}
		for _, j := range spec.JitterNs {
			if j >= shortest {
				return nil, fmt.Errorf("campaign: jitter %d ns >= shortest slot %d ns (a release jittered past its slot never departs)", j, shortest)
			}
		}
	}
	var (
		taskNames []string
		basePrios []int
	)
	for _, node := range coord.nodes {
		for _, t := range coord.dbg.Node(node).Tasks() {
			taskNames = append(taskNames, t.Name)
			basePrios = append(basePrios, t.Priority)
		}
	}
	sortByName(taskNames, basePrios)

	variants := planVariants(&spec, taskNames, basePrios, slots)
	results := make([]VariantResult, len(variants))

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One warm simulator per worker, built lazily on the worker's first
	// variant. Each slot is touched only by its own worker, so the slices
	// need no lock.
	runners := make([]*runner, workers)
	buildErr := make([]error, workers)
	runners[0] = coord
	getRunner := func(w int) (*runner, error) {
		if runners[w] == nil && buildErr[w] == nil {
			runners[w], buildErr[w] = newRunner(&spec, sc, prog, base)
		}
		return runners[w], buildErr[w]
	}

	forEach(workers, len(variants), func(w, i int) {
		v := variants[i]
		r, err := getRunner(w)
		if err != nil {
			results[i] = VariantResult{Index: v.Index, Seed: v.Seed, Error: err.Error()}
			return
		}
		results[i] = runVariant(r, &spec, v)
	})

	if spec.Shrink {
		var targets []int
		for i := range results {
			if results[i].Error == "" && len(results[i].Violations) > 0 {
				targets = append(targets, i)
			}
		}
		if len(targets) > spec.MaxRepros {
			targets = targets[:spec.MaxRepros]
		}
		forEach(workers, len(targets), func(w, ti int) {
			i := targets[ti]
			r, err := getRunner(w)
			if err != nil {
				return
			}
			ns, repro, err := shrinkVariant(r, &spec, variants[i])
			if err != nil {
				results[i].Error = "shrink: " + err.Error()
				return
			}
			results[i].ShrunkNs = ns
			results[i].ReproTrace = repro
		})
	}

	return &Aggregate{
		Model: spec.Model, Variants: spec.Variants, Seed: spec.Seed,
		WarmNs: spec.WarmNs, RunNs: spec.RunNs,
		Results: results, Summary: summarize(results),
	}, nil
}

// forEach calls fn(w, i) for every i in [0, n) on workers goroutines and
// returns when all calls have finished. Each goroutine takes the next
// index from one shared counter, so a slow variant holds up no other; w
// (0..workers-1) names the goroutine, for per-worker state.
func forEach(workers, n int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// runVariant is one fork-run-observe cycle.
func runVariant(r *runner, spec *Spec, v variant) VariantResult {
	fail := func(err error) VariantResult {
		return VariantResult{Index: v.Index, Seed: v.Seed, Error: err.Error()}
	}
	if err := r.fork(v); err != nil {
		return fail(err)
	}
	if err := r.run(spec.RunNs); err != nil {
		return fail(err)
	}
	res, err := r.observe(v)
	if err != nil {
		return fail(err)
	}
	return res
}

// sortByName co-sorts the task name/priority pair lists by name, so the
// priority multiset lines up with the sorted names planVariants permutes
// over.
func sortByName(names []string, prios []int) {
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
			prios[j], prios[j-1] = prios[j-1], prios[j]
		}
	}
}
