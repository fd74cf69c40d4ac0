package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// MetricSpec is one metric entry of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// HigherBetter reports the metric's direction.
func (m MetricSpec) HigherBetter() bool { return m.Better == "higher" }

// Workload is one workload entry of BENCHMARK.json.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is the part of BENCHMARK.json the benchmark reads.
type Spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []Workload   `json:"workloads"`
	EndToEnd   []MetricSpec `json:"end_to_end"`
	PerLayer   []MetricSpec `json:"per_layer"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

// Comparison outcomes.
const (
	Improved   Verdict = "improved"
	Unchanged  Verdict = "unchanged"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
)

// MinPairs is the fewest parent/change pairs a comparison accepts.
const MinPairs = 10

// Decision explains a Verdict.
type Decision struct {
	Verdict       Verdict
	Pairs, Wins   int
	Parent        float64 // parent median
	Change        float64 // change median
	ParentIQR     float64 // parent quartile distance
	SpreadTooWide bool    // parent IQR exceeds the bound
}

// Decide compares paired runs of one metric. parent[i] and change[i] are
// the i-th pair. The rule:
//
//   - worse: the change median is worse than the parent median by more
//     than bound (a share of the parent median);
//   - improved: the change wins at least 9 of every 10 pairs (ties count
//     for neither side) and the medians differ by more than the parent's
//     quartile distance;
//   - unresolved: the parent's own quartile distance exceeds the bound,
//     so "no worse than the bound" cannot be shown, unless every change
//     run reads better than every parent run;
//   - unchanged otherwise.
func Decide(parent, change []float64, higherBetter bool, bound float64) (Decision, error) {
	n := min(len(parent), len(change))
	if n < MinPairs {
		return Decision{}, fmt.Errorf("need at least %d pairs, have %d", MinPairs, n)
	}
	parent, change = parent[:n], change[:n]
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	d := Decision{Pairs: n, Parent: Median(parent), Change: Median(change)}
	for i := range n {
		if better(change[i], parent[i]) {
			d.Wins++
		}
	}
	q1, q3 := Quartiles(parent)
	d.ParentIQR = q3 - q1
	gain := d.Change - d.Parent // positive = change better
	if !higherBetter {
		gain = -gain
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	ref := math.Abs(d.Parent)
	d.SpreadTooWide = d.ParentIQR > bound*ref
	switch {
	case d.SpreadTooWide && !allBetter:
		d.Verdict = Unresolved
	case -gain > bound*ref:
		d.Verdict = Worse
	case d.Wins*10 >= 9*n && gain > d.ParentIQR:
		d.Verdict = Improved
	default:
		d.Verdict = Unchanged
	}
	return d, nil
}
