package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // unsorted on purpose
	}
	return v
}

func TestTailPercentNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {15, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := tailPercent(c.n); q > 0 && c.n-rank(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, q, c.n-rank(c.n, q))
		}
	}
}

func TestSummarizeReportsCountMedianAndTail(t *testing.T) {
	got := summarize(seq(1000))
	want := Timing{N: 1000, P50: 500, TailPct: 99, Tail: 990}
	if got != want {
		t.Fatalf("summarize(1..1000) = %+v, want %+v", got, want)
	}
	if got := summarize(seq(12)); got.N != 12 || got.P50 != 6 || got.TailPct != 0 || got.Tail != 0 {
		t.Fatalf("summarize(1..12) = %+v, want n=12 p50=6 and no tail", got)
	}
}

func TestSupportedRefusesThinTail(t *testing.T) {
	if _, ok := supported(seq(500), 99); ok {
		t.Error("p99 of 500 samples was reported as supported")
	}
	s := seq(2000)
	sort.Float64s(s)
	if v, ok := supported(s, 99); !ok || v != 1980 {
		t.Errorf("p99 of 1..2000 = %g, %v; want 1980, true", v, ok)
	}
}

func TestIQMDropsOutlyingQuarters(t *testing.T) {
	// A burst of contention (the two 1s) and one unusually fast round
	// (100) do not move the interquartile mean of a run of 10s.
	if got := iqm([]float64{10, 1, 10, 100, 10, 10, 1, 10}); got != 10 {
		t.Errorf("iqm = %g, want 10", got)
	}
	if got := iqm([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("iqm(1..4) = %g, want 2.5", got)
	}
	if got := iqm([]float64{7}); got != 7 {
		t.Errorf("iqm of one sample = %g, want it", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // sticks out
		{ID: 5, Parent: 2, Name: "a.1", Start: ms(15), End: ms(20)},
		{ID: 6, Parent: 1, Name: "d", Start: ms(35), End: ms(45)}, // inside a∪b
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(40), 2: ms(25), 3: ms(30), 4: ms(30), 5: ms(5), 6: ms(10)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *Tracer
	tr.End(tr.Start("x", 0, "r"))
	if tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	tr = newTracer()
	root := tr.Start("root", 0, "r1")
	tr.End(tr.Start("child", root, "r1"))
	tr.Start("open", root, "r1") // never closed: not reported
	tr.End(root)
	if got := tr.Spans(); len(got) != 2 || got[1].Parent != root || got[1].ReqID != "r1" {
		t.Fatalf("spans = %+v", got)
	}
}

func TestKeyGenIsSeeded(t *testing.T) {
	draw := func(seed int64, n int) ([]string, []keyClass) {
		g := newKeyGen(seed)
		var keys []string
		var classes []keyClass
		for len(keys) < n {
			reqs, c := g.next()
			for _, r := range reqs {
				keys = append(keys, r.Key())
				classes = append(classes, c)
			}
		}
		return keys[:n], classes[:n]
	}
	a, ca := draw(7, 20000)
	b, _ := draw(7, 20000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 draws differ at %d", i)
		}
	}
	if c, _ := draw(8, 200); c[0] == a[0] && c[1] == a[1] && c[199] == a[199] {
		t.Error("seeds 7 and 8 draw the same stream")
	}

	g := newKeyGen(7)
	known := map[string]keyClass{}
	for _, r := range g.hot {
		known[r.Key()] = hot
	}
	for _, r := range g.warm {
		known[r.Key()] = warm
	}
	if len(known) != nHot+nWarm {
		t.Fatalf("hot and warm sets hold %d distinct keys, want %d", len(known), nHot+nWarm)
	}
	count := map[keyClass]int{}
	coldSeen := map[string]int{}
	for i, k := range a {
		count[ca[i]]++
		if ca[i] == cold {
			if _, ok := known[k]; ok {
				t.Fatalf("cold key %s is a hot or warm key", k)
			}
			coldSeen[k]++
		} else if known[k] != ca[i] {
			t.Fatalf("%v draw %s is not in the %v set", ca[i], k, ca[i])
		}
	}
	for k, n := range coldSeen {
		if n > coldBurst {
			t.Fatalf("cold key %s drawn %d times, more than one burst", k, n)
		}
	}
	// 20000 requests are 50 whole blocks, so the shares are exact.
	for c, share := range map[keyClass]float64{hot: hotShare, warm: warmShare, cold: coldShare} {
		if got := float64(count[c]) / float64(len(a)); math.Abs(got-share) > 1e-9 {
			t.Errorf("%v share %.4f, want %.4f", c, got, share)
		}
	}
}

func TestLadderClimbFindsHighestPassingRung(t *testing.T) {
	const n, start = ladderN, 22 // rung 22 is the highest at or below highRate
	if rung(start) > highRate || rung(start+1) <= highRate {
		t.Fatalf("rung %d is not the highest at or below the high rate", start)
	}
	for threshold := start; threshold < n; threshold++ {
		probes := 0
		got := ladderClimb(n, maxProbes, start, climbStep, func(r int) bool {
			probes++
			return r <= threshold
		})
		// Eight probes resolve every rung but one to the rung; that one
		// to the rung below.
		if got > threshold || got < threshold-1 {
			t.Errorf("threshold %d: ladderClimb = %d", threshold, got)
		}
		if probes > maxProbes {
			t.Errorf("threshold %d: %d probes, max %d", threshold, probes, maxProbes)
		}
	}
	// One probe failed by host contention below capacity does not
	// lower the answer for good.
	failed := false
	got := ladderClimb(n, maxProbes, start, climbStep, func(r int) bool {
		if !failed {
			failed = true
			return false
		}
		return r <= 36
	})
	if got != 36 {
		t.Errorf("after one spurious failure: ladderClimb = %d, want 36", got)
	}
	// With nothing known to pass it returns a rung that passed, or -1.
	if got := ladderClimb(n, maxProbes, -1, climbStep, func(r int) bool { return r <= 30 }); got < 0 || got > 30 {
		t.Errorf("from -1: ladderClimb = %d, want a passing rung", got)
	}
	if got := ladderClimb(n, maxProbes, -1, climbStep, func(int) bool { return false }); got != -1 {
		t.Errorf("nothing passes: ladderClimb = %d, want -1", got)
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := []int{3, 5, 2, 4, 6, 3, 2, 5, 4}
	paused := []int{3, 5, 2, 4, 6, 3, 2, 90, 4} // one sample during a pause
	rising := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	if growing(flat, 8) {
		t.Error("flat backlog reported growing")
	}
	if growing(paused, 8) {
		t.Error("a one-sample pause reported as growth")
	}
	if !growing(rising, 8) {
		t.Error("rising backlog not reported growing")
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, workloads)
	}
	for i := range names {
		if i < len(workloads) && names[i] != workloads[i] {
			t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, workloads)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestRoundPeaksIgnoreSamplesBetweenRounds(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := &rssSampler{quit: make(chan struct{})}
	for _, s := range []struct {
		ms int
		mb float64
	}{{0, 500}, {10, 30}, {20, 40}, {30, 900}, {40, 20}, {50, 25}, {60, 700}, {70, 50}, {80, 10}} {
		r.samples = append(r.samples, rssSample{at(s.ms), s.mb})
	}
	// Samples at 0, 30 and 60 ms fall between rounds and do not count.
	spells := [][2]time.Time{{at(5), at(25)}, {at(35), at(55)}, {at(65), at(85)}}
	got := r.roundPeaks(spells)
	if want := []float64{40, 25, 50}; !slices.Equal(got, want) {
		t.Errorf("roundPeaks = %v, want %v", got, want)
	}
}
