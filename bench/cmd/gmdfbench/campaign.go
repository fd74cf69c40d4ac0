package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/bench/harness"
	"repro/internal/campaign"
	"repro/internal/target"
)

// sweep is one campaign_sweep operation: a dist bus sweep and a
// priorityload priority shuffle, run back to back.
type sweep struct {
	key   string
	specs [2]campaign.Spec
}

func (b *bench) sweepPlan(workers int) []sweep {
	r := newRNG(b.cfg.seed, "campaign_sweep")
	variants := max(4, int(256*b.cfg.scale))
	var plan []sweep
	for i := range 8 {
		plan = append(plan, sweep{key: fmt.Sprintf("r%d", i), specs: [2]campaign.Spec{
			{
				Model: "dist", Variants: variants, Seed: r.next(),
				WarmNs: 10_000_000, RunNs: 25_000_000, Workers: workers,
				Loss: []uint32{0, 50, 100, 200}, JitterNs: []uint64{0, 10_000, 20_000},
				RotateSlots: true, MissBudget: -1, DropBudget: 5, Shrink: true,
			},
			{
				Model: "priorityload", Variants: variants, Seed: r.next(),
				WarmNs: 5_000_000, RunNs: 25_000_000, Workers: workers,
				ShufflePriorities: true, MissBudget: 0, DropBudget: -1, Shrink: true,
			},
		}})
	}
	return plan
}

// vns is the virtual time a sweep simulates: each warm-up once, then
// every variant's run.
func (s *sweep) vns() uint64 {
	var t uint64
	for _, sp := range s.specs {
		t += sp.WarmNs + uint64(sp.Variants)*sp.RunNs
	}
	return t
}

func (s *sweep) variants() int { return s.specs[0].Variants + s.specs[1].Variants }

// run executes the sweep, each campaign.Run in a span when tr is set,
// and returns the digest of both aggregates, the violating-variant count
// and the time the two campaign.Run calls took.
func (s *sweep) run(workers int, tr *harness.Tracer) (string, int, time.Duration, error) {
	h := sha256.New()
	violating := 0
	var took time.Duration
	for _, sp := range s.specs {
		sp.Workers = workers
		start := time.Now()
		tr.Begin("campaign.run." + sp.Model)
		agg, err := campaign.Run(sp)
		tr.End()
		took += time.Since(start)
		if err != nil {
			return "", 0, took, fmt.Errorf("%s %s: %w", s.key, sp.Model, err)
		}
		if agg.Summary.Errors > 0 {
			return "", 0, took, fmt.Errorf("%s %s: %d variants failed", s.key, sp.Model, agg.Summary.Errors)
		}
		raw, err := json.Marshal(agg)
		if err != nil {
			return "", 0, took, err
		}
		h.Write(raw)
		violating += agg.Summary.Violating
	}
	return hex.EncodeToString(h.Sum(nil)), violating, took, nil
}

// campaignSweep: checkpoint-fork campaigns on nproc workers, alternating a
// dist bus sweep and a priorityload priority shuffle, 256 variants each
// with shrinking on. A plan cycle is 8 seeded sweeps.
func campaignSweep(b *bench) error {
	workers := runtime.NumCPU()
	warm := sweep{key: "warm", specs: b.sweepPlan(workers)[0].specs}
	for i := range warm.specs {
		warm.specs[i].Variants = workers
	}
	if err := b.setup(func() (func(), error) {
		_, _, _, err := warm.run(workers, nil)
		return nil, err
	}); err != nil {
		return err
	}
	plan := b.sweepPlan(workers)
	if b.cfg.trace {
		return b.traceCampaign(plan[0], workers)
	}
	deadline := b.deadlineAfter(1)
	m := newMeter()
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		m.cycle()
		for i := range plan {
			if cycle > 0 && !time.Now().Before(deadline) {
				break
			}
			digest, _, took, err := plan[i].run(workers, nil)
			b.attempt(err)
			if err != nil {
				continue
			}
			m.op(took, plan[i].vns())
			b.output(plan[i].key, cycle == 0, digest)
			settle()
			if err := b.resetup(); err != nil {
				return err
			}
		}
	}
	report(b, m)
	if err := b.selfRSS(); err != nil {
		return err
	}
	// The aggregate is a pure function of the spec: one worker must
	// reproduce the first sweep byte for byte.
	digest, _, _, err := plan[0].run(1, nil)
	if err != nil {
		return err
	}
	b.same("workers=1 = workers=nproc "+plan[0].key, digest, b.digests[plan[0].key])
	return nil
}

// traceCampaign is the traced run of campaign_sweep on the first sweep:
// spanned passes alternating with untraced passes that carry the
// allocation counters, one pass on a single worker, a shadow
// fork/run/observe of each model's base checkpoint through the facade,
// and the simulation ladder.
func (b *bench) traceCampaign(s sweep, workers int) error {
	tr := b.tr
	var want string
	violating, passes := 0, 0
	var traced, untraced time.Duration
	var mem memDelta
	deadline := b.deadlineAfter(0.4)
	for passes == 0 || time.Now().Before(deadline) {
		start := time.Now()
		tr.Begin("campaign.round")
		d, v, _, err := s.run(workers, tr)
		tr.End()
		traced += time.Since(start)
		b.attempt(err)
		if err != nil {
			return err
		}
		if passes == 0 {
			want, violating = d, v
		}
		b.same("traced pass "+s.key, d, want)

		m0 := readMem()
		d, _, took, err := s.run(workers, nil)
		mem = mem.plus(readMem().since(m0))
		b.attempt(err)
		if err != nil {
			return err
		}
		untraced += took
		b.same("traced = untraced "+s.key, d, want)
		passes++
	}
	d, _, one, err := s.run(1, nil)
	if err != nil {
		return err
	}
	b.same("workers=1 = workers=nproc "+s.key, d, want)

	variantCost, forkShare, err := b.shadowVariants(s)
	if err != nil {
		return err
	}
	nv := float64(s.variants())
	perRound := float64(untraced) / float64(passes)
	b.set("campaign.scaling", float64(one)/perRound, "x")
	b.set("campaign.parallel_efficiency", variantCost*nv/(perRound*float64(workers)), "ratio")
	b.set("campaign.fork_share", forkShare, "ratio")
	b.set("campaign.violating_share", float64(violating)/nv, "ratio")
	b.set("campaign.allocs_per_variant", float64(mem.objects)/float64(passes)/nv, "count")
	b.set("campaign.alloc_bytes_per_variant", float64(mem.bytes)/float64(passes)/nv, "B")
	round := tr.Layer("campaign.round")
	b.set("bench.trace_overhead", float64(traced)/float64(untraced), "x")
	b.set("bench.unattributed_share", ratio(float64(round.Self), float64(round.Total)), "ratio")
	b.noFarm()

	pl, err := boardSpec("priorityload")
	if err != nil {
		return err
	}
	h := b.scaledMs(300) * 1_000_000
	lad, err := b.runLadder([]simItem{
		{key: "ladder/dist", spec: distSpec(target.ExecAuto), horizonNs: h},
		{key: "ladder/priorityload", spec: pl, horizonNs: h},
	}, 0.15)
	if err != nil {
		return err
	}
	lad.report(b)
	return b.isolate(lad)
}

func distSpec(exec target.ExecMode) *sessionSpec {
	return &sessionSpec{
		sys: modelSys("dist"),
		cluster: func(nodes []string) target.ClusterConfig {
			return repro.StandardClusterConfig(nodes, exec)
		},
	}
}

// shadowVariants forks each model's warm base checkpoint the way a
// campaign worker does (clone, restore, run, observe), through the
// facade, and returns the mean cost of one variant in ns and the share of
// it spent forking.
func (b *bench) shadowVariants(s sweep) (float64, float64, error) {
	tr := b.tr
	pl, err := boardSpec("priorityload")
	if err != nil {
		return 0, 0, err
	}
	var fork, total time.Duration
	n := 0
	for i, spec := range []*sessionSpec{distSpec(target.ExecSerial), pl} {
		sp := s.specs[i]
		f, err := buildFacade(spec)
		if err != nil {
			return 0, 0, err
		}
		if err := f.runNs(sp.WarmNs); err != nil {
			return 0, 0, err
		}
		base, err := f.checkpoint()
		if err != nil {
			return 0, 0, err
		}
		for range 32 {
			start := time.Now()
			tr.Begin("campaign.shadow.fork")
			err := f.restore(base.Clone())
			tr.End()
			fork += time.Since(start)
			if err != nil {
				return 0, 0, err
			}
			tr.Begin("campaign.shadow.run")
			err = f.runNs(sp.RunNs)
			tr.End()
			if err != nil {
				return 0, 0, err
			}
			tr.Begin("campaign.shadow.observe")
			if f.dbg != nil {
				_, err = f.dbg.Board.ResponseTimeAnalysis()
			}
			tr.End()
			if err != nil {
				return 0, 0, err
			}
			total += time.Since(start)
			n++
		}
	}
	return ns(total) / float64(n), ratio(float64(fork), float64(total)), nil
}
