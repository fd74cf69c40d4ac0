package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/bench/harness"
	"repro/internal/target"
)

// ladder is the traced measurement of a fixed set of sessions: passes of
// the layered (spanned) runner alternating with passes of the facade,
// then one ExecSerial pass of any cluster session.
type ladder struct {
	passes   int
	layers   map[string]harness.Layer // span totals over all traced passes
	counts   counts                   // exact work of one pass
	sessions int                      // sessions per pass

	traced, untraced time.Duration // session time over all passes
	auto             time.Duration // cluster sessions over all untraced passes
	serial           time.Duration // cluster sessions in the one ExecSerial pass
	mem              memDelta      // over the untraced passes

	facades []*facade // the last untraced pass, for the isolation costs
}

// runLadder alternates traced and untraced passes until share of the
// run's seconds has passed (at least one pair). Every session's traced
// output must equal its facade output, and a cluster session's
// ExecSerial output must equal its auto output.
func (b *bench) runLadder(items []simItem, share float64) (*ladder, error) {
	tr := b.tr
	lad := &ladder{sessions: len(items)}
	before := tr.Layers()
	want := map[string]string{}
	deadline := b.deadlineAfter(share)
	for lad.passes == 0 || time.Now().Before(deadline) {
		for _, it := range items {
			tr.SetGroup(it.key)
			start := time.Now()
			tr.Begin("session")
			tr.Begin("session.build")
			l, err := buildLayered(it.spec, tr)
			tr.End()
			if err != nil {
				tr.End()
				return nil, fmt.Errorf("%s: traced build: %w", it.key, err)
			}
			for done := uint64(0); done < it.horizonNs && err == nil; done += chunkNs {
				tr.Begin("chunk")
				err = l.runNs(min(chunkNs, it.horizonNs-done))
				tr.End()
			}
			tr.End()
			lad.traced += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s: traced run: %w", it.key, err)
			}
			if lad.passes == 0 {
				want[it.key] = l.view().digest()
				lad.counts.add(l.view(), it.horizonNs)
			}
		}
		tr.SetGroup("")

		m0 := readMem()
		lad.facades = lad.facades[:0]
		for _, it := range items {
			f, d, err := runFacade(it.spec, it.horizonNs)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.key, err)
			}
			lad.untraced += d
			if it.spec.cluster != nil {
				lad.auto += d
			}
			if lad.passes == 0 {
				b.same("traced = untraced "+it.key, f.view().digest(), want[it.key])
			}
			lad.facades = append(lad.facades, f)
		}
		lad.mem = lad.mem.plus(readMem().since(m0))
		lad.passes++
	}
	lad.layers = diffLayers(tr.Layers(), before)

	for _, it := range items {
		if it.spec.cluster == nil {
			continue
		}
		serial := *it.spec
		auto := it.spec.cluster
		serial.cluster = func(nodes []string) target.ClusterConfig {
			c := auto(nodes)
			c.Exec = target.ExecSerial
			return c
		}
		f, d, err := runFacade(&serial, it.horizonNs)
		if err != nil {
			return nil, fmt.Errorf("%s: serial: %w", it.key, err)
		}
		lad.serial += d
		b.same("ExecSerial = auto "+it.key, f.view().digest(), want[it.key])
	}
	return lad, nil
}

// runFacade builds a facade session and runs it for a horizon in chunks,
// returning the session and the time it took.
func runFacade(s *sessionSpec, horizonNs uint64) (*facade, time.Duration, error) {
	start := time.Now()
	f, err := buildFacade(s)
	if err != nil {
		return nil, 0, err
	}
	for done := uint64(0); done < horizonNs; done += chunkNs {
		if err := f.runNs(min(chunkNs, horizonNs-done)); err != nil {
			return nil, 0, err
		}
	}
	return f, time.Since(start), nil
}

// report sets the simulation-layer metrics: span self times per virtual
// ms, exact counts, runtime counters and the executor speedup.
func (lad *ladder) report(b *bench) {
	vms := float64(lad.counts.vns) / 1e6 * float64(lad.passes)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	run, env := lad.layers["target.run"], lad.layers["env.plant"]
	poll, react := lad.layers["engine.poll"], lad.layers["engine.react"]
	proc, build := lad.layers["engine.process"], lad.layers["session.build"]
	b.set("target.run_us_per_vms", us(run.Self)/vms, "us/vms")
	b.set("env.plant_share", ratio(float64(env.Total), float64(run.Total)), "ratio")
	b.set("engine.poll_us_per_vms", us(poll.Total)/vms, "us/vms")
	b.set("engine.react_ns_per_event", ratio(float64(react.Total), float64(react.Count)), "ns")
	b.set("engine.self_us_per_vms", us(proc.Self)/vms, "us/vms")
	b.set("session.build_us", ratio(us(build.Total), float64(build.Count)), "us")

	c := lad.counts
	pvms := float64(c.vns) / 1e6
	b.set("target.cycles_per_vms", float64(c.cycles)/pvms, "cycles/vms")
	b.set("target.instr_cycle_share", ratio(float64(c.instr), float64(c.cycles)), "ratio")
	b.set("dtm.releases_per_vms", float64(c.releases)/pvms, "count/vms")
	b.set("dtm.preemptions_per_vs", float64(c.preempts)/pvms*1e3, "count/vs")
	b.set("dtm.deadline_misses_per_vs", float64(c.misses)/pvms*1e3, "count/vs")
	b.set("engine.events_per_vms", float64(c.events)/pvms, "count/vms")
	b.set("serial.bytes_per_vms", float64(c.uartBytes)/pvms, "B/vms")
	b.set("serial.frames_dropped_per_vs", float64(c.framesDropped)/pvms*1e3, "count/vs")
	b.set("dtm.bus_frames_per_vms", float64(c.busFrames)/pvms, "count/vms")
	b.set("dtm.bus_drop_share", ratio(float64(c.busDrops), float64(c.busFrames)), "ratio")

	b.set("runtime.alloc_bytes_per_vms", float64(lad.mem.bytes)/vms, "B/vms")
	b.set("runtime.allocs_per_vms", float64(lad.mem.objects)/vms, "count/vms")
	b.set("runtime.gc_cpu_share", lad.mem.gcShare(), "ratio")
	speedup := 1.0 // a board has one executor
	if lad.auto > 0 {
		speedup = float64(lad.serial) / (float64(lad.auto) / float64(lad.passes))
	}
	b.set("target.parallel_speedup", speedup, "x")
}

// overhead is the traced ÷ untraced time of the same sessions.
func (lad *ladder) overhead() float64 { return float64(lad.traced) / float64(lad.untraced) }

// unattributed is the share of traced session time outside every layer
// span: the session and chunk spans' own self time.
func (lad *ladder) unattributed() float64 {
	s, c := lad.layers["session"], lad.layers["chunk"]
	return ratio(float64(s.Self+c.Self), float64(s.Total))
}

// traceSim is the traced run of board_live and cluster_tdma: the ladder
// over the first plan items plus the isolation costs on their sessions.
func (b *bench) traceSim(items []simItem, share float64) error {
	lad, err := b.runLadder(items, share)
	if err != nil {
		return err
	}
	lad.report(b)
	b.set("bench.trace_overhead", lad.overhead(), "x")
	b.set("bench.unattributed_share", lad.unattributed(), "ratio")
	b.res.Attempted += int64(lad.passes * lad.sessions)
	b.noFarm()
	b.noCampaign()
	return b.isolate(lad)
}

func diffLayers(after, before map[string]harness.Layer) map[string]harness.Layer {
	out := map[string]harness.Layer{}
	for k, a := range after {
		p := before[k]
		out[k] = harness.Layer{Count: a.Count - p.Count, Total: a.Total - p.Total, Self: a.Self - p.Self}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta is the runtime's allocation and GC work between two samples.
type memDelta struct {
	bytes, objects  uint64
	gcCPU, totalCPU float64
}

func readMem() memDelta {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return memDelta{
		bytes: s[0].Value.Uint64(), objects: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

func (m memDelta) since(p memDelta) memDelta {
	return memDelta{m.bytes - p.bytes, m.objects - p.objects, m.gcCPU - p.gcCPU, m.totalCPU - p.totalCPU}
}

func (m memDelta) plus(o memDelta) memDelta {
	return memDelta{m.bytes + o.bytes, m.objects + o.objects, m.gcCPU + o.gcCPU, m.totalCPU + o.totalCPU}
}

func (m memDelta) gcShare() float64 { return ratio(m.gcCPU, m.totalCPU) }
