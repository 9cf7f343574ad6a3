package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// may be reported as a timing's tail: a percentile with fewer samples
// beyond it is one or two outliers, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles a timing's tail is chosen from,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// Timing summarizes one set of latency samples the way every timing in
// the benchmark is reported: the median, the highest percentile with at
// least minBeyond samples beyond it, and the sample count.
type Timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"` // 0 when no percentile qualifies
	Tail    float64 `json:"tail"`
}

// summarize reduces samples (any unit) to a Timing. It sorts a copy.
func summarize(samples []float64) Timing {
	t := Timing{N: len(samples)}
	if len(samples) == 0 {
		return t
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t.P50 = percentile(s, 50)
	if q := tailPercent(len(s)); q > 0 {
		t.TailPct = q
		t.Tail = percentile(s, q)
	}
	return t
}

// rank is the 1-based nearest-rank position of percentile q among n
// sorted samples.
func rank(n int, q float64) int {
	// q*n first: q/100 is inexact in binary (99.9/100*10000 > 9990).
	r := int(math.Ceil(q * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank percentile q of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// tailPercent returns the highest percentile on tailLadder that has at
// least minBeyond of n samples strictly above its rank, or 0 if none has.
func tailPercent(n int) float64 {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// supported returns percentile q of sorted samples if at least
// minBeyond samples lie beyond it, else 0 and false: the serving latency
// limit is on a fixed percentile, and a step too short to support it
// cannot be judged to meet it.
func supported(sorted []float64, q float64) (float64, bool) {
	if len(sorted)-rank(len(sorted), q) < minBeyond {
		return 0, false
	}
	return percentile(sorted, q), true
}

// median returns the median of samples (the mean of the middle pair for
// an even count); 0 for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqm is the interquartile mean: the mean of the middle half of the
// samples (after dropping the lowest and highest quarter). A burst of
// host contention slows a few rounds of a run; the IQM ignores them,
// and wastes fewer samples than the median.
func iqm(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := len(s) / 4
	return mean(s[q : len(s)-q])
}

// mean is the arithmetic mean; 0 for none.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0, for layer ratios over counts that a
// workload may not exercise.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
