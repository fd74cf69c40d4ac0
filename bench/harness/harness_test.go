package harness

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
)

// TestPercentileRule: the reported tail percentile always has at least
// MinTail samples above it, and is the highest candidate that does.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for n := 1; n <= 3000; n++ {
		p := HighestPercentile(n)
		if p == 0 {
			continue
		}
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		v := Percentile(s, p)
		beyond := n - sort.SearchFloat64s(s, math.Nextafter(v, math.Inf(1)))
		if beyond < MinTail {
			t.Fatalf("n=%d: p%g = %g has %d samples beyond it", n, p, v, beyond)
		}
	}
}

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 9.4, 2.2, 7.7, 5.0, 6.6, 1.9, 8.8, 4.3, 10.5, 0.7}, 2.2, 8.8},
	} {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// selfTimes is the offline reference: each span's duration minus the time
// its direct children cover, from a complete span list of one goroutine.
func selfTimes(spans []Span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// TestSelfTimeNested: a span's self time is its duration minus what its
// direct children cover, for arbitrarily nested spans, and the online
// totals equal the offline computation over the retained spans.
func TestSelfTimeNested(t *testing.T) {
	var now int64
	tr := newTracer(100, func() int64 { return now })
	at := func(ns int64) { now = ns }
	// root [0,100] ⊃ a [10,40] ⊃ leaf [15,25]; root ⊃ b [50,90] ⊃ leaf [60,65]
	at(0)
	tr.Begin("root")
	at(10)
	tr.Begin("a")
	at(15)
	tr.Begin("leaf")
	at(25)
	tr.End()
	at(40)
	tr.End()
	at(50)
	tr.Begin("b")
	at(60)
	tr.Begin("leaf")
	at(65)
	tr.End()
	at(90)
	tr.End()
	at(100)
	tr.End()

	want := map[string][2]int64{ // total, self
		"root": {100, 30},
		"a":    {30, 20},
		"b":    {40, 35},
		"leaf": {15, 15},
	}
	for name, w := range want {
		l := tr.Layer(name)
		if int64(l.Total) != w[0] || int64(l.Self) != w[1] {
			t.Errorf("%s: total %d self %d, want %d %d", name, l.Total, l.Self, w[0], w[1])
		}
	}
	offline := map[string]int64{}
	for id, self := range selfTimes(tr.kept) {
		for _, s := range tr.kept {
			if s.ID == id {
				offline[s.Name] += self
			}
		}
	}
	for name, w := range want {
		if offline[name] != w[1] {
			t.Errorf("offline self time of %s = %d, want %d", name, offline[name], w[1])
		}
	}

	// A forked tracer's totals fold back in.
	f := tr.Fork(2)
	at(200)
	f.Begin("leaf")
	at(207)
	f.End()
	tr.Absorb(f)
	if l := tr.Layer("leaf"); l.Count != 3 || l.Total != 22 {
		t.Errorf("after Absorb leaf = %+v, want 3 spans totalling 22", l)
	}

	var nilTracer *Tracer
	nilTracer.Begin("x") // a nil tracer records nothing and does not panic
	nilTracer.End()
}

func series(base, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i%5-2)
	}
	return out
}

// TestDecideTable walks the comparison rule through each outcome.
func TestDecideTable(t *testing.T) {
	parent := series(100, 1, 10) // 98..102, IQR 2.5
	for _, c := range []struct {
		name   string
		parent []float64
		change []float64
		higher bool
		bound  float64
		want   Verdict
	}{
		{"faster in every pair", parent, series(90, 1, 10), false, 0.05, Improved},
		{"same distribution", parent, series(100, 1, 10), false, 0.05, Unchanged},
		{"slower beyond the bound", parent, series(110, 1, 10), false, 0.05, Worse},
		{"slower within the bound", parent, series(103, 1, 10), false, 0.05, Unchanged},
		{"higher-better metric improved", parent, series(110, 1, 10), true, 0.05, Improved},
		{"higher-better metric worse", parent, series(90, 1, 10), true, 0.05, Worse},
		{"parent spread wider than the bound", series(100, 10, 10), series(98, 10, 10), false, 0.05, Unresolved},
		{"wide spread but every change run better", series(100, 3, 10), series(80, 1, 10), false, 0.02, Improved},
		{"gap within the parent IQR", parent, series(99, 1, 10), false, 0.05, Unchanged},
		{"wins only 8 of 10 pairs", parent, append(series(90, 1, 8), 200, 200), false, 0.5, Unchanged},
	} {
		d, err := Decide(c.parent, c.change, c.higher, c.bound)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d.Verdict != c.want {
			t.Errorf("%s: %s (%+v), want %s", c.name, d.Verdict, d, c.want)
		}
	}
	if _, err := Decide(parent[:9], parent[:9], false, 0.1); err == nil {
		t.Error("9 pairs accepted")
	}
}

// TestResultLine: the last output line carries exactly the four keys,
// and every metric exactly a value and a unit.
func TestResultLine(t *testing.T) {
	r := Result{Correct: true, Attempted: 3, Metrics: map[string]Metric{
		"op_p75_ms": {Value: 1.5, Unit: "ms", Samples: 120, Percentile: 75},
	}}
	line, err := r.Line()
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("line keys: %s", line)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if m := ms["op_p75_ms"]; len(m) != 2 || m["value"] != 1.5 || m["unit"] != "ms" {
		t.Fatalf("metric: %v", m)
	}
}
