// Package harness holds the parts of the gmdfbench benchmark that do not
// depend on the system under test: sample statistics and the percentile
// rule, the in-memory span tracer with self-time accounting, result files,
// and the parent/change comparison rule.
package harness

import (
	"math"
	"sort"
)

// MinTail is the number of samples that must lie beyond a reported
// percentile: a p99 over 300 samples rests on three values and says
// nothing repeatable.
const MinTail = 10

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the p-th percentile (0..100) of sorted samples by
// linear interpolation between closest ranks; NaN for no samples.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Median is Percentile(sorted copy, 50).
func Median(xs []float64) float64 { return Percentile(Sorted(xs), 50) }

// TailOK reports whether percentile p over n samples has at least MinTail
// samples beyond it. The test is in tenths of a percent and integers, so
// p99.9 over exactly 10000 samples passes.
func TailOK(n int, p float64) bool {
	tenths := int64(math.Round(p * 10))
	return int64(n)*(1000-tenths) >= MinTail*1000
}

// HighestPercentile returns the highest of the candidate percentiles
// (99.9, 99, 95, 90, 75, 50) that TailOK allows over n samples, or 0 when
// even the median rests on fewer than MinTail samples per side.
func HighestPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if TailOK(n, p) {
			return p
		}
	}
	return 0
}

// Quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them by default (the
// "exclusive" method, including its clamping for tiny samples).
func Quartiles(xs []float64) (q1, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// IQRShare is the quartile distance of xs as a share of its median.
func IQRShare(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(Median(xs))
}
