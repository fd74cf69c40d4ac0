package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/comdes"
	"repro/internal/target"
	"repro/models"
)

// simItem is one planned debug session: a spec run for a horizon in
// 100-virtual-ms chunks.
type simItem struct {
	key       string
	spec      *sessionSpec
	horizonNs uint64
}

func modelSys(name string) func() (*comdes.System, error) {
	return func() (*comdes.System, error) { return models.ByName(name) }
}

// boardSpec compiles a built-in model for its standard board and
// environment, as the gmdf CLI runs it.
func boardSpec(name string) (*sessionSpec, error) {
	sys, err := models.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg := repro.DebugConfig{Transport: repro.Active, Board: repro.StandardBoardConfig(name)}
	prog, err := repro.CompileFor(sys, cfg)
	if err != nil {
		return nil, err
	}
	s := &sessionSpec{sys: modelSys(name), prog: prog, board: cfg.Board}
	if repro.StandardEnvironment(name) != nil {
		s.env = func() func(uint64, *target.Board) { return repro.StandardEnvironment(name) }
	}
	return s, nil
}

// boardLive: a seeded mix of heating (plant environment), priorityload
// (preemptive board) and ring (VM-heavy) sessions over the active
// transport. A plan cycle is 8 rounds; each round runs all three models
// for the same seeded 1-8 virtual s horizon, so every seed gives the three
// models equal virtual time and the rates stay comparable across seeds.
func boardLive(b *bench) error {
	names := []string{"heating", "priorityload", "ring"}
	var specs map[string]*sessionSpec
	err := b.setup(func() (func(), error) {
		built := map[string]*sessionSpec{}
		for _, name := range names {
			s, err := boardSpec(name)
			if err != nil {
				return nil, err
			}
			if _, err := buildFacade(s); err != nil {
				return nil, err
			}
			built[name] = s
		}
		if specs == nil {
			specs = built
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	r := newRNG(b.cfg.seed, "board_live")
	var plan []simItem
	for round, h100 := range r.strata(8, 10, 82) {
		h := b.scaledMs(100*h100) * 1_000_000
		for _, i := range r.perm(len(names)) {
			plan = append(plan, simItem{key: fmt.Sprintf("r%d/%s", round, names[i]), spec: specs[names[i]], horizonNs: h})
		}
	}
	if b.cfg.trace {
		return b.traceSim(plan[:3], 0.45)
	}
	return b.simulate(plan)
}

// clusterTDMA: 16-node token rings on the standard TDMA bus (jitter, 10%
// loss) under the auto (parallel) executor. Each session draws its bus
// seed and a 3-7 virtual s horizon; a plan cycle is 4 sessions.
func clusterTDMA(b *bench) error {
	err := b.setup(func() (func(), error) {
		sys, err := models.RingCluster(16)
		if err != nil {
			return nil, err
		}
		_, err = repro.DebugCluster(sys, repro.ClusterDebugConfig{Cluster: repro.StandardClusterConfig(sys.Nodes(), target.ExecAuto)})
		return nil, err
	})
	if err != nil {
		return err
	}
	r := newRNG(b.cfg.seed, "cluster_tdma")
	var plan []simItem
	for i, h100 := range r.strata(4, 30, 70) {
		h := b.scaledMs(100*h100) * 1_000_000
		plan = append(plan, simItem{key: fmt.Sprintf("s%d", i), spec: ringClusterSpec(r.next(), target.ExecAuto), horizonNs: h})
	}
	if b.cfg.trace {
		return b.traceSim(plan[:1], 0.45)
	}
	return b.simulate(plan)
}

func ringClusterSpec(busSeed uint64, exec target.ExecMode) *sessionSpec {
	return &sessionSpec{
		sys: func() (*comdes.System, error) { return models.RingCluster(16) },
		cluster: func(nodes []string) target.ClusterConfig {
			cfg := repro.StandardClusterConfig(nodes, exec)
			cfg.Bus.Seed = busSeed
			return cfg
		},
	}
}

// simulate is the untraced measured phase of board_live and cluster_tdma:
// plan cycles repeat until the time is up. The first cycle always
// completes (it is what the sim_digest covers); after it, a session cut
// short by the deadline counts its chunks but has no output to check.
// Each session is built with the facade and advanced in 100-virtual-ms
// RunNs chunks; the chunks are the measured operations, and sim_speed
// counts the session builds too.
func (b *bench) simulate(plan []simItem) error {
	deadline := b.deadlineAfter(1)
	m := newMeter()
	over := func(cycle int) bool { return cycle > 0 && time.Now().After(deadline) }
	for cycle := 0; !over(cycle); cycle++ {
		m.cycle()
		for _, it := range plan {
			if over(cycle) {
				break
			}
			start := time.Now()
			f, err := buildFacade(it.spec)
			m.step(time.Since(start), 0)
			if err != nil {
				b.attempt(fmt.Errorf("%s: build: %w", it.key, err))
				continue
			}
			done := uint64(0)
			for done < it.horizonNs && !over(cycle) {
				step := min(chunkNs, it.horizonNs-done)
				start := time.Now()
				err := f.runNs(step)
				m.op(time.Since(start), step)
				if err != nil {
					b.attempt(fmt.Errorf("%s: %w", it.key, err))
					break
				}
				b.attempt(nil)
				done += step
			}
			if done == it.horizonNs {
				b.output(it.key, cycle == 0, f.view().digest())
			}
			settle()
			if err := b.resetup(); err != nil {
				return err
			}
		}
	}
	report(b, m)
	return b.selfRSS()
}

// settle collects the heap between measured items, outside their timing,
// so each session or sweep starts from a collected heap as it would in a
// fresh debugger process: peak_rss_mb is then the largest single item's
// peak, not an accident of when the collector last ran.
func settle() { runtime.GC() }

// selfRSS reports this process's peak resident set.
func (b *bench) selfRSS() error {
	mb, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", mb, "MB")
	return nil
}
