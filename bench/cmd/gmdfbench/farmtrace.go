package main

import (
	"fmt"
	"time"

	"repro/bench/harness"
	"repro/internal/comdes"
	"repro/internal/dsl"
	"repro/internal/target"
)

// farmTraced are the request kinds with a per-method overhead share.
var farmTraced = []string{"create", "attach", "break", "run_until", "step", "rewind", "trace", "detach"}

// noFarm reports the farm-only ratios as zero on workloads that never
// reach the farm (the farm layer is bypassed there).
func (b *bench) noFarm() {
	for _, m := range farmTraced {
		b.set("farm.overhead_share."+m, 0, "ratio")
	}
	b.set("farm.overhead_share", 0, "ratio")
	b.set("farm.wire_bytes_out_per_request", 0, "B")
	b.set("farm.wire_bytes_in_per_request", 0, "B")
	b.set("farm.events_streamed_per_session", 0, "count")
	b.set("farm.server_cpu_share", 0, "ratio")
	b.set("farm.client_cpu_share", 0, "ratio")
}

// noCampaign reports the campaign-only ratios as zero on workloads that
// never fork.
func (b *bench) noCampaign() {
	b.set("campaign.scaling", 0, "x")
	for _, n := range []string{"campaign.parallel_efficiency", "campaign.fork_share", "campaign.violating_share"} {
		b.set(n, 0, "ratio")
	}
	b.set("campaign.allocs_per_variant", 0, "count")
	b.set("campaign.alloc_bytes_per_variant", 0, "B")
}

func clientBytes(cs []*farmClient) (in, out int64) {
	for _, fc := range cs {
		in += fc.conn.in
		out += fc.conn.out
	}
	return in, out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// traceFarm is the traced run of farm_debug. Remote passes run each
// client's first plan cycle with a span per request and byte-counting
// connections, alternating with untraced passes of the same cycle; the
// in-process shadow replays the same scripts (remote = shadow) and gives
// each request kind's simulation cost, so rtt − shadow is what the farm
// adds; the ladder runs the four session kinds forward.
func (b *bench) traceFarm(srv *server, clients []*farmClient, src string) error {
	st0, err := clients[0].c.Stats()
	if err != nil {
		return err
	}
	srv0, err := srv.cpu()
	if err != nil {
		return err
	}
	self0, err := procCPU("/proc/self/stat")
	if err != nil {
		return err
	}
	// Traced and untraced passes alternate, so warm-up and drift fall on
	// both sides of the overhead ratio alike.
	rtt := map[string][]float64{}
	var in, out int64
	requests, passes := 0, 0
	var traced, untraced time.Duration
	cycle := func(fc *farmClient, tr *harness.Tracer) { fc.cycle(src, tr) }
	deadline := b.deadlineAfter(0.4)
	begin := time.Now()
	for passes == 0 || time.Now().Before(deadline) {
		in0, out0 := clientBytes(clients)
		start := time.Now()
		runClients(clients, b.tr, cycle)
		traced += time.Since(start)
		in1, out1 := clientBytes(clients)
		in, out = in+in1-in0, out+out1-out0
		for _, fc := range clients {
			for m, xs := range fc.tm.samples {
				rtt[m] = append(rtt[m], xs...)
				requests += len(xs)
			}
			fc.tm.samples = map[string][]float64{}
		}
		start = time.Now()
		runClients(clients, nil, cycle)
		untraced += time.Since(start)
		for _, fc := range clients {
			fc.tm.samples = map[string][]float64{}
		}
		passes++
	}
	wall := time.Since(begin)
	srv1, err := srv.cpu()
	if err != nil {
		return err
	}
	self1, err := procCPU("/proc/self/stat")
	if err != nil {
		return err
	}
	st1, err := clients[0].c.Stats()
	if err != nil {
		return err
	}

	sh := &timed{tr: b.tr, prefix: "farm.shadow.", samples: map[string][]float64{}}
	outs, err := b.shadowReplay(clients, src, sh)
	if err != nil {
		return err
	}
	b.res.Attempted += int64(2 * requests)
	b.checkClients(clients, outs)

	var rttSum, shadowSum float64
	for _, m := range farmMethods {
		// Per pass, the remote ran every script once and so did the shadow.
		r, s := mean(rtt[m]), mean(sh.samples[m])
		rttSum += r * float64(len(sh.samples[m]))
		shadowSum += s * float64(len(sh.samples[m]))
	}
	for _, m := range farmTraced {
		r := mean(rtt[m])
		b.set("farm.overhead_share."+m, ratio(r-mean(sh.samples[m]), r), "ratio")
	}
	b.set("farm.overhead_share", ratio(rttSum-shadowSum, rttSum), "ratio")
	b.set("farm.wire_bytes_out_per_request", float64(out)/float64(requests), "B")
	b.set("farm.wire_bytes_in_per_request", float64(in)/float64(requests), "B")
	sessions := float64(2 * passes * len(clients) * farmCycle)
	b.set("farm.events_streamed_per_session", float64(st1.EventsStreamed-st0.EventsStreamed)/sessions, "count")
	b.set("farm.server_cpu_share", ns(srv1-srv0)/ns(wall), "ratio")
	b.set("farm.client_cpu_share", ns(self1-self0)/ns(wall), "ratio")
	b.set("bench.trace_overhead", float64(traced)/float64(untraced), "x")
	script := b.tr.Layer("farm.script")
	b.set("bench.unattributed_share", ratio(float64(script.Self), float64(script.Total)), "ratio")
	b.noCampaign()

	items, err := b.farmLadderItems(src)
	if err != nil {
		return err
	}
	lad, err := b.runLadder(items, 0.15)
	if err != nil {
		return err
	}
	lad.report(b)
	return b.isolate(lad)
}

// farmLadderItems are the four session kinds, run forward.
func (b *bench) farmLadderItems(src string) ([]simItem, error) {
	h := b.scaledMs(300) * 1_000_000
	var items []simItem
	for _, name := range []string{"heating", "ring"} {
		s, err := boardSpec(name)
		if err != nil {
			return nil, err
		}
		items = append(items, simItem{key: "ladder/" + name, spec: s, horizonNs: h})
	}
	items = append(items, simItem{key: "ladder/dist", spec: distSpec(target.ExecAuto), horizonNs: h})
	loaded, diags, err := dsl.LoadSource("heating.gmdf", src)
	if err != nil {
		return nil, fmt.Errorf("%v: %v", err, diags)
	}
	prog, err := newShadow(src).program("dsl", loaded.Sys)
	if err != nil {
		return nil, err
	}
	items = append(items, simItem{key: "ladder/dsl", horizonNs: h, spec: &sessionSpec{
		sys: func() (*comdes.System, error) {
			l, _, err := dsl.LoadSource("heating.gmdf", src)
			if err != nil {
				return nil, err
			}
			return l.Sys, nil
		},
		prog:  prog,
		board: loaded.BoardConfig(),
		env:   func() func(uint64, *target.Board) { return loaded.Environment() },
	}})
	return items, nil
}
