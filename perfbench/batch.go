package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"phantom/internal/search"
	"phantom/internal/service"
	"phantom/internal/telemetry"
)

// call is one request a batch workload makes: a service.Execute of a
// normalized request, or a search.Run when Search is set.
type call struct {
	Round  int
	Req    service.Request
	Search *search.Options
}

// name is the experiment name the call's spans and metrics use.
func (c call) name() string {
	if c.Search != nil {
		return "search"
	}
	return c.Req.Experiment
}

// key identifies the call's input: the service content address for
// experiments, a hash of the options for search.
func (c call) key() string {
	if o := c.Search; o != nil {
		return digest([]byte(fmt.Sprintf("search|%s|%d|%d", o.Arch, o.Seed, o.Budget)))
	}
	return c.Req.Key()[:16]
}

// exec runs the call with a sweep pool of jobs workers and returns the
// rendered output.
func (c call) exec(ctx context.Context, jobs int) ([]byte, error) {
	var b bytes.Buffer
	if c.Search != nil {
		o := *c.Search
		o.Jobs = jobs
		res, err := search.Run(ctx, o)
		if err != nil {
			return nil, err
		}
		if err := res.Render(&b); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	}
	if err := service.Execute(ctx, &b, c.Req, jobs); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// chainArchs are the archs exploit-chain runs the Section 7 chain on,
// one mds call each per round, and mdsBytes how much each call leaks.
// An mds run boots once and runs the whole chain (image KASLR, physmap
// KASLR, physical address, leak), reporting a boot on which a step
// comes up empty as a run without signal.
var chainArchs = []string{"zen1", "zen2"}

const mdsBytes = 4096

// searchBudget is the number of programs one cold-sweep search call
// generates and diffs ("a few hundred").
const searchBudget = 256

// mix returns the calls of one round of a batch workload, at the
// experiment seed derived from (workload seed, round). Round -1 is the
// set-up round: every experiment of the workload once at its smallest
// size, at the fixed seed 1, so that set-up time does not depend on the
// workload seed (a chain's cost varies several-fold between seeds).
func mix(workload string, wseed int64, round int) []call {
	s := expSeed(wseed, round)
	warm := round < 0
	if warm {
		s = 1
	}
	var calls []call
	add := func(r service.Request) { calls = append(calls, call{Round: round, Req: normalize(r)}) }
	switch {
	case workload == "cold-sweep" && !warm:
		add(service.Request{Experiment: "table1", Archs: []string{"all"}, Seed: s, Trials: 3})
		add(service.Request{Experiment: "fig6", Seed: s})
		add(service.Request{Experiment: "kaslr", Archs: []string{"zen2", "zen3", "zen4"}, Seed: s, Runs: 3})
		add(service.Request{Experiment: "sls", Seed: s})
		add(service.Request{Experiment: "covert", Seed: s, Runs: 1, Bits: 64})
		calls = append(calls, call{Round: round, Search: &search.Options{Arch: "zen2", Seed: s, Budget: searchBudget}})
	case workload == "cold-sweep":
		add(service.Request{Experiment: "table1", Archs: []string{"zen2"}, Seed: s, Trials: 1})
		add(service.Request{Experiment: "fig6", Archs: []string{"zen2"}, Seed: s})
		add(service.Request{Experiment: "kaslr", Archs: []string{"zen2"}, Seed: s, Runs: 1})
		add(service.Request{Experiment: "sls", Archs: []string{"zen2"}, Seed: s})
		add(service.Request{Experiment: "covert", Archs: []string{"zen2"}, Seed: s, Runs: 1, Bits: 16})
		calls = append(calls, call{Round: round, Search: &search.Options{Arch: "zen2", Seed: s, Budget: 32}})
	case workload == "exploit-chain":
		n := mdsBytes
		if warm {
			n = 64
		}
		for i, a := range chainArchs {
			// Each arch boots at a seed of its own: a call's cost follows
			// its seed, so a run averages over twice as many seeds.
			if i > 0 && !warm {
				s = expSeed(wseed^int64(i)<<32, round)
			}
			add(service.Request{Experiment: "mds", Archs: []string{a}, Seed: s, Runs: 1, Bytes: n})
		}
	default:
		panic("mix: not a batch workload: " + workload)
	}
	return calls
}

// normalize canonicalizes a service request built by the benchmark.
func normalize(r service.Request) service.Request {
	n, err := r.Normalize()
	if err != nil {
		panic(fmt.Sprintf("benchmark request %+v does not normalize: %v", r, err))
	}
	return n
}

// expSeed derives the experiment seed of a round from the workload
// seed: distinct, positive and stable for every (seed, round).
func expSeed(wseed int64, round int) int64 {
	return int64(splitmix(uint64(wseed)*0x9e3779b97f4a7c15+uint64(round+2))%1_000_000) + 1
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// prefixRounds is the fixed number of leading rounds every batch run
// completes, however short --seconds is. The exact counts are taken over
// these rounds only, so they are identical between runs at one seed.
const prefixRounds = 2

// timedCall is one completed call of the timed pass, with the digest
// its replay produced.
type timedCall struct {
	call
	dur          time.Duration
	out          []byte
	digest       string
	err          error
	replayDigest string
	replayErr    error
}

// pass is what the timed pass of a batch run measured and counted.
type pass struct {
	calls      []timedCall
	wall       time.Duration     // the timed rounds only
	replayWall time.Duration     // the replays only
	allocMB    float64           // allocated by the timed rounds
	spells     [][2]time.Time    // when each timed round ran
	roundInstr []uint64          // each round's simulated instructions, counted in its replay
	prefix     map[string]uint64 // hub counters over the first prefixRounds replays
	counts     map[string]uint64 // hub counters over every replay
}

// timedPass runs whole rounds of a batch workload, one call at a time
// with telemetry off, until the rounds add up to seconds (and at least
// prefixRounds). Each round starts from a collected heap and is
// followed, untimed, by its replay. Alternating spreads the timed
// rounds over the whole run, so that they sample the fast and slow
// spells of a shared host (tens of seconds each) instead of only the
// first.
func timedPass(ctx context.Context, o opts, tr *Tracer) (*pass, error) {
	p := &pass{prefix: map[string]uint64{}, counts: map[string]uint64{}}
	limit := time.Duration(o.seconds * float64(time.Second))
	var ms0, ms1 runtime.MemStats
	for round := 0; round < prefixRounds || p.wall < limit; round++ {
		debug.FreeOSMemory()
		runtime.ReadMemStats(&ms0)
		lo := len(p.calls)
		start := time.Now()
		for _, c := range mix(o.workload, o.seed, round) {
			t := time.Now()
			out, err := c.exec(ctx, o.nproc)
			p.calls = append(p.calls, timedCall{call: c, dur: time.Since(t), out: out, digest: digest(out), err: err})
		}
		end := time.Now()
		runtime.ReadMemStats(&ms1)
		p.wall += end.Sub(start)
		p.spells = append(p.spells, [2]time.Time{start, end})
		p.allocMB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		t := time.Now()
		hub := telemetry.Enable(telemetry.Config{})
		err := replayRound(ctx, p.calls[lo:], o.nproc, tr)
		telemetry.Disable()
		p.replayWall += time.Since(t)
		if err != nil {
			return nil, err
		}
		snap := counterSnapshot(hub.Registry())
		p.roundInstr = append(p.roundInstr, snap["pipeline_instructions"])
		addCounts(p.counts, snap)
		if round < prefixRounds {
			addCounts(p.prefix, snap)
		}
	}
	return p, nil
}

// replayRound re-runs one round's calls while a telemetry hub is
// active, recording each call's replay digest. Traced (tr non-nil), the
// calls run one at a time on a sweep pool of jobs workers, with a span
// per call and per round. Untraced, they run on jobs goroutines with a
// one-worker sweep each, which also checks that outputs do not depend
// on the pool size.
func replayRound(ctx context.Context, round []timedCall, jobs int, tr *Tracer) error {
	if tr == nil {
		return parallel(ctx, jobs, len(round), func(i int) error {
			out, err := round[i].exec(ctx, 1)
			round[i].replayDigest, round[i].replayErr = digest(out), err
			return nil
		})
	}
	req := fmt.Sprintf("r%d", round[0].Round)
	root := tr.Start("round", 0, req)
	defer tr.End(root)
	for i := range round {
		c := &round[i]
		span := tr.Start(spanName(c.call), root, req)
		out, err := c.exec(ctx, jobs)
		tr.End(span)
		c.replayDigest, c.replayErr = digest(out), err
	}
	return ctx.Err()
}

// rounds splits calls, in round order, into one slice per round (the
// slices share calls' backing array).
func rounds(calls []timedCall) [][]timedCall {
	var out [][]timedCall
	for lo := 0; lo < len(calls); {
		hi := lo
		for hi < len(calls) && calls[hi].Round == calls[lo].Round {
			hi++
		}
		out = append(out, calls[lo:hi])
		lo = hi
	}
	return out
}

// spanName is the span a call into a layer records.
func spanName(c call) string {
	if c.Search != nil {
		return "search.run"
	}
	return "service.execute." + c.Req.Experiment
}

// addCounts adds the counters of src into dst.
func addCounts(dst, src map[string]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}

// counterSnapshot copies the hub's counters plus the sums and counts of
// its histograms (as <name>.sum / <name>.count).
func counterSnapshot(reg *telemetry.Registry) map[string]uint64 {
	snap := reg.Snapshot()
	out := make(map[string]uint64, len(snap.Counters)+2*len(snap.Histograms))
	for k, v := range snap.Counters {
		out[k] = v
	}
	for k, h := range snap.Histograms {
		out[k+".sum"] = h.Sum
		out[k+".count"] = h.Count
	}
	return out
}

// digest is the short content hash outputs are compared by.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}
