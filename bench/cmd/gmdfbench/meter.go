package main

import (
	"time"

	"repro/bench/harness"
)

// meter collects the measured phase of one closed loop (the benchmark's
// driving goroutine, or one farm_debug client): every operation's latency,
// and the wall time and virtual time of each step of the loop's plan
// cycle, by the step's position in the cycle. A plan cycle repeats the
// same steps in the same order, so each position is the same work every
// time it comes round.
type meter struct {
	lat   []float64   // ms, every measured operation
	times [][]float64 // ms, by position in the plan cycle
	vns   []uint64    // virtual time of the step at each position
	pos   int
}

func newMeter() *meter { return &meter{} }

// cycle marks the start of a plan cycle.
func (m *meter) cycle() { m.pos = 0 }

// step records the next step of the plan cycle that is not a measured
// operation (a session build): its wall time and the virtual time it
// advanced.
func (m *meter) step(d time.Duration, vns uint64) {
	if m.pos == len(m.times) {
		m.times = append(m.times, nil)
		m.vns = append(m.vns, vns)
	}
	m.times[m.pos] = append(m.times[m.pos], float64(d.Nanoseconds())/1e6)
	m.pos++
}

// op records a measured operation: its latency, and it as the next step.
func (m *meter) op(d time.Duration, vns uint64) {
	m.lat = append(m.lat, float64(d.Nanoseconds())/1e6)
	m.step(d, vns)
}

// speed is the loop's virtual ns per wall ns over one plan cycle, each
// step taken at its median wall time over the cycles the run made. On a
// shared host CPU steal stalls a varying share of steps by up to tens of
// ms; summed as they came, the stalls cut board_live's throughput in one
// run of ten to 0.57 of the ten runs' median, while that run's median
// chunk was within 1% of theirs.
func (m *meter) speed() float64 {
	var vns uint64
	var ms float64
	for i, ts := range m.times {
		vns += m.vns[i]
		ms += harness.Median(ts)
	}
	return float64(vns) / (ms * 1e6)
}

// tailPercentile is the tail op latency reported, as op_p75_ms. Every
// workload has enough samples for p90, but p90 does not repeat: on a
// shared 2-core host, CPU steal stretches some operations, and how many
// changes from run to run and lands first in the tail. Over ten seeds,
// p90's quartile spread reached 0.26 of its median on campaign_sweep and
// 0.46 on board_live, where p75's was 0.14 and 0.24.
const tailPercentile = 75.0

// report sets op_p50_ms and op_p75_ms over the operations of all the
// loops, and sim_speed as the sum of the loops' speeds (they ran at the
// same time). The tail falls back to the highest percentile with MinTail
// samples beyond it when a short run has too few samples for p75; the
// result file records which it is.
func report(b *bench, loops ...*meter) {
	var lat []float64
	speed := 0.0
	for _, m := range loops {
		lat = append(lat, m.lat...)
		speed += m.speed()
	}
	s := harness.Sorted(lat)
	n := len(s)
	tail := tailPercentile
	if !harness.TailOK(n, tail) {
		tail = max(harness.HighestPercentile(n), 50)
	}
	b.res.Metrics["op_p50_ms"] = harness.Metric{Value: harness.Percentile(s, 50), Unit: "ms", Samples: n, Percentile: 50}
	b.res.Metrics["op_p75_ms"] = harness.Metric{Value: harness.Percentile(s, tail), Unit: "ms", Samples: n, Percentile: tail}
	b.set("sim_speed", speed, "ns/ns")
}
