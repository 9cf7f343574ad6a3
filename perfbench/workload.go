package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"phantom/internal/service"
	"phantom/internal/telemetry"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// runBatchWorkload runs cold-sweep or exploit-chain: set-up (the
// workload's warm-up round, setupReps times), the timed closed loop
// with each round's replay, the output checks and, when traced, the
// per-layer metrics.
func runBatchWorkload(ctx context.Context, o opts, rep *report) error {
	ck, err := newChecker(o.seed)
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if i == 0 {
			t = o.start
		}
		for _, c := range mix(o.workload, o.seed, -1) {
			if _, err := c.exec(ctx, o.nproc); err != nil {
				return fmt.Errorf("set-up %s: %w", c.name(), err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	var tr *Tracer
	if o.trace {
		tr = newTracer()
	}
	p, err := timedPass(ctx, o, tr)
	if err != nil {
		return err
	}
	calls := p.calls
	peaks := o.rss.roundPeaks(p.spells)
	var ps []string
	for _, mb := range peaks {
		ps = append(ps, fmt.Sprintf("%.1f", mb))
	}
	rep.Notes = append(rep.Notes, "round peak MB: "+strings.Join(ps, " "))
	var coreMS map[string]float64
	var nsPerInstr float64
	if o.workload == "exploit-chain" {
		// The chain's ground truth, for the mds calls of the first
		// rounds; traced, also the core layer's spans.
		var boots []bootPair
		for _, c := range calls {
			if c.Round < prefixRounds {
				boots = append(boots, bootPair{c.Req.Archs[0], c.Req.Seed})
			}
		}
		hub := telemetry.Enable(telemetry.Config{})
		coreMS, nsPerInstr, err = coreProbe(boots, ck, hub.Registry(), tr)
		telemetry.Disable()
		if err != nil {
			return err
		}
	}

	durs := map[string][]float64{}
	for _, c := range calls {
		rep.Attempted++
		if !ck.batchCall(c) {
			rep.Failed++
		}
		durs[c.name()] = append(durs[c.name()], ms(c.dur))
	}
	rep.Wrong, rep.Errors = ck.wrong, ck.errs
	// Per-round rates; their interquartile mean is the run's rate.
	var expRate, instrRate []float64
	var rs []string
	for r, round := range rounds(calls) {
		var t time.Duration
		for _, c := range round {
			t += c.dur
		}
		expRate = append(expRate, float64(len(round))/t.Seconds())
		instrRate = append(instrRate, float64(p.roundInstr[r])/t.Seconds()/1e6)
		rs = append(rs, fmt.Sprintf("%.0f", ms(t)))
	}
	rep.Notes = append(rep.Notes, "round ms: "+strings.Join(rs, " "))
	for name, d := range durs {
		rep.Timings["exec_ms."+name] = summarize(d)
	}
	n := float64(len(calls))
	rep.EndToEnd["setup_s"] = median(setups)
	rep.EndToEnd["exp_per_s"] = iqm(expRate)
	rep.EndToEnd["sim_minstr_per_s"] = iqm(instrRate)
	rep.EndToEnd["alloc_mb_per_exp"] = p.allocMB / n
	rep.EndToEnd["peak_rss_mb"] = iqm(peaks)
	if !o.trace {
		return nil
	}
	for name, v := range coreMS {
		rep.Layers[name+"_ms"] = v
	}
	if coreMS != nil {
		rep.Layers["pipeline.host_ns_per_instr"] = nsPerInstr
	}
	return batchLayers(o, rep, calls, p.prefix, p.counts, p.wall, p.replayWall, tr)
}

// batchLayers fills the per-layer metrics of a traced batch run from
// the replay's spans and counters and from the direct layer probes.
func batchLayers(o opts, rep *report, calls []timedCall, prefix, counts map[string]uint64,
	wall, replay time.Duration, tr *Tracer) error {
	L := rep.Layers
	spans := tr.Spans()
	for _, exp := range []string{"table1", "fig6", "kaslr", "sls", "covert", "mds"} {
		L["service.execute_ms."+exp] = spanMedianMS(spans, "service.execute."+exp)
	}
	L["search.run_ms"] = spanMedianMS(spans, "search.run")
	if L["search.run_ms"] > 0 {
		L["search.programs_per_s"] = searchBudget / (L["search.run_ms"] / 1e3)
	}

	// Exact counts over the fixed prefix of rounds.
	var np int
	var pairs []bootPair
	seen := map[bootPair]bool{}
	for _, c := range calls {
		if c.Round >= prefixRounds {
			break
		}
		np++
		rep.Digests = append(rep.Digests, c.key()+"="+c.digest)
		if c.Search != nil {
			continue
		}
		for _, a := range c.Req.Archs {
			if p := (bootPair{a, c.Req.Seed}); !seen[p] {
				seen[p] = true
				pairs = append(pairs, p)
			}
		}
	}
	rep.Exact = map[string]uint64{"experiments": uint64(np)}
	var sims uint64
	for k, v := range prefix {
		switch {
		case strings.HasPrefix(k, "pipeline_"), k == "sweep_jobs_done":
			rep.Exact[k] = v
		case strings.HasPrefix(k, "experiment_"):
			rep.Exact[k] = v
			sims += v
		}
	}
	per := func(k string) float64 { return float64(prefix[k]) / float64(np) }
	L["pipeline.boots_per_exp"] = per("pipeline_boots")
	L["pipeline.instr_per_exp"] = per("pipeline_instructions")
	L["pipeline.sim_cycles_per_exp"] = per("pipeline_sim_cycles")
	L["pipeline.transient_decodes_per_exp"] = per("pipeline_transient_decodes")
	L["pipeline.frontend_resteers_per_exp"] = per("pipeline_frontend_resteers")
	L["pipeline.predecode_hit_ratio"] = ratio(float64(prefix["pipeline_predecode_hits"]),
		float64(prefix["pipeline_predecode_hits"]+prefix["pipeline_predecode_misses"]))
	L["sweep.jobs_per_exp"] = per("sweep_jobs_done")
	L["service.simulations"] = float64(sims)
	L["sweep.worker_busy_frac"] = float64(counts["sweep_job_latency_ns.sum"]) / (float64(o.nproc) * float64(replay))
	L["trace.overhead_pct"] = (replay.Seconds()/wall.Seconds() - 1) * 100

	bootMS, bootMB, newMS, err := bootProbe(pairs, tr)
	if err != nil {
		return err
	}
	L["kernel.boot_ms"], L["kernel.boot_alloc_mb"], L["pipeline.new_ms"] = bootMS, bootMB, newMS
	var execMS float64
	for _, s := range spans {
		if s.Parent != 0 && s.ReqID != "probe" { // the replayed calls, not the layer probes
			execMS += ms(s.Dur())
		}
	}
	bootShares(L, execMS/float64(len(calls)))
	return writeSpans(o, tr)
}

// bootShares bounds the share of an experiment's time (expMS) spent
// constructing machines, from the machines built per experiment and
// the direct construction probes: every machine costs at least a
// pipeline.New, and none costs more than a whole kernel.Boot.
func bootShares(L map[string]float64, expMS float64) {
	L["kernel.boot_share_lo"] = ratio(L["pipeline.boots_per_exp"]*L["pipeline.new_ms"], expMS)
	L["kernel.boot_share_hi"] = ratio(L["pipeline.boots_per_exp"]*L["kernel.boot_ms"], expMS)
}

// writeSpans stores the traced run's spans, with self times, next to
// its results.
func writeSpans(o opts, tr *Tracer) error {
	spans := tr.Spans()
	self := selfTimes(spans)
	type out struct {
		Span
		SelfNS time.Duration `json:"self_ns"`
	}
	all := make([]out, len(spans))
	for i, s := range spans {
		all[i] = out{s, self[s.ID]}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return writeResult(fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed), data)
}

// runServe runs serve-zipf: set-up (store fill, restart, pre-warm;
// setupReps times), the fixed-rate steps and the ladder (or, traced,
// the fixed-rate steps untraced and then traced), and the output checks.
func runServe(ctx context.Context, o opts, rep *report) error {
	ck, err := newChecker(o.seed)
	if err != nil {
		return err
	}
	gen := newKeyGen(o.seed)
	client := &http.Client{Transport: &http.Transport{Protocols: h2c(), MaxConnsPerHost: o.nproc}}
	defer client.CloseIdleConnections()

	var setups []float64
	var sv *served
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if i == 0 {
			t = o.start
		}
		dir, err := scratchDir(fmt.Sprintf("store-%d", i))
		if err != nil {
			return err
		}
		s, err := startServed(ctx, dir, gen, o.nproc, client)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupReps-1 {
			if err := s.close(); err != nil {
				return err
			}
		} else {
			sv = s
		}
	}
	defer sv.close()
	rep.EndToEnd["setup_s"] = median(setups)

	lg := &loadgen{url: sv.url, client: client, gen: gen}
	S := time.Duration(o.seconds * float64(time.Second))
	var steps []*step
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	low := lg.runStep(ctx, lowRate, S*20/100, stepDrain)
	high := lg.runStep(ctx, highRate, S*15/100, stepDrain)
	steps = append(steps, low, high)
	// Memory at the fixed rates: the ladder's overload probes are not
	// what a user of the server sees.
	runtime.ReadMemStats(&ms1)
	rep.EndToEnd["peak_rss_mb"] = peakRSSMB(o)
	rep.EndToEnd["alloc_mb_per_exp"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(low.ok()+high.ok())
	var best *step
	if !o.trace {
		// When the high step met the limit, it is the best so far and
		// the climb starts from the highest rung at or below its rate.
		start := -1
		if high.meets(p99LimitMS) {
			start, best = int(math.Log(highRate/ladderBase)/math.Log(ladderStep)), high
		}
		probeDur := S * 65 / 100 / maxProbes
		ladderClimb(ladderN, maxProbes, start, climbStep, func(i int) bool {
			st := lg.runStep(ctx, rung(i), probeDur, probeDrain)
			steps = append(steps, st)
			ok := st.meets(p99LimitMS)
			if ok && (best == nil || st.rate > best.rate) {
				best = st
			}
			return ok
		})
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Fixed-rate steps count toward attempted/failed; ladder probes
	// above capacity are refused by design, so only their answers are
	// checked.
	for _, st := range []*step{low, high} {
		rep.Attempted += len(st.replies) + st.dropped
		rep.Failed += st.failed()
	}
	for _, st := range steps[2:] {
		rep.Attempted += st.ok()
	}
	for name, st := range map[string]*step{"low": low, "high": high} {
		rep.Timings["serve_ms."+name] = summarize(st.latencies())
		rep.Timings["loadgen.late_ms."+name] = summarize(st.late)
	}
	if best == nil && !o.trace {
		rep.Notes = append(rep.Notes, "no step met the latency limit; exp_per_s is the lowest probe's rate")
		for _, st := range steps[2:] {
			if best == nil || st.rate < best.rate {
				best = st
			}
		}
	}
	if best != nil {
		rep.EndToEnd["exp_per_s"] = best.achieved
		rep.Notes = append(rep.Notes, fmt.Sprintf("serve_max_rps rung %.1f req/s (achieved %.1f)", best.rate, best.achieved))
	}
	for _, st := range steps {
		rep.Notes = append(rep.Notes, fmt.Sprintf("step %v: meets limit %v", st, st.meets(p99LimitMS)))
	}

	var traced []*step
	var tr *Tracer
	var counts map[string]uint64
	if o.trace {
		hub := telemetry.Enable(telemetry.Config{})
		tr = newTracer()
		lg.tr = tr
		traced = []*step{lg.runStep(ctx, lowRate, S*30/100, stepDrain), lg.runStep(ctx, highRate, S*35/100, stepDrain)}
		counts = counterSnapshot(hub.Registry())
		telemetry.Disable()
		lg.tr = nil
		for _, st := range traced {
			rep.Attempted += len(st.replies) + st.dropped
			rep.Failed += st.failed()
		}
		steps = append(steps, traced...)
	}

	simRate, wrong, err := checkServed(ctx, o, ck, steps)
	if err != nil {
		return err
	}
	rep.Failed += wrong
	rep.Wrong = ck.wrong
	rep.EndToEnd["sim_minstr_per_s"] = simRate
	if !o.trace {
		return nil
	}
	return serveLayers(o, rep, sv, steps[:2], traced, counts, tr)
}

// checkServed checks every answered request: all answers for one key
// must be the same bytes, and those bytes must be the recorded digest
// (default seed) or what service.Execute renders for the request. It
// returns the simulator's speed on the cold keys simulated during the
// run (exact instructions over untraced wall time, in Minstr/s) and
// how many answers were wrong.
func checkServed(ctx context.Context, o opts, ck *checker, steps []*step) (float64, int, error) {
	type keyInfo struct {
		req     service.Request
		digests map[string]int // answer digest -> answers
		simMS   float64        // server-reported, when simulated in the window
	}
	byKey := map[string]*keyInfo{}
	var order []string
	for _, st := range steps {
		for _, r := range st.replies {
			if r.err != nil || r.status != http.StatusOK {
				continue
			}
			ki := byKey[r.key]
			if ki == nil {
				ki = &keyInfo{req: r.req, digests: map[string]int{}}
				byKey[r.key] = ki
				order = append(order, r.key)
			}
			ki.digests[r.digest]++
			if !r.cached && !r.coalesced {
				ki.simMS += r.simMS
			}
		}
	}
	want := make([]string, len(order))
	render := func(i int) error {
		var b bytes.Buffer
		if err := service.Execute(ctx, &b, byKey[order[i]].req, 1); err != nil {
			return err
		}
		want[i] = digest(b.Bytes())
		return nil
	}
	var sims, rest []int
	for i, k := range order {
		switch d, ok := ck.pinned[k[:16]]; {
		case byKey[k].simMS > 0:
			sims = append(sims, i)
		case ok:
			want[i] = d
		default:
			rest = append(rest, i)
		}
	}
	// The keys simulated in the window run once more, one at a time,
	// untraced and timed, then again with a telemetry hub on to count
	// their instructions exactly.
	t := time.Now()
	for _, i := range sims {
		if err := render(i); err != nil {
			return 0, 0, err
		}
	}
	wall := time.Since(t)
	hub := telemetry.Enable(telemetry.Config{})
	err := parallel(ctx, o.nproc, len(sims), func(j int) error { return render(sims[j]) })
	instr := hub.Registry().Counter("pipeline_instructions").Value()
	telemetry.Disable()
	if err != nil {
		return 0, 0, err
	}
	if err := parallel(ctx, o.nproc, len(rest), func(j int) error { return render(rest[j]) }); err != nil {
		return 0, 0, err
	}
	wrong := 0
	for i, k := range order {
		ki := byKey[k]
		if d, ok := ck.pinned[k[:16]]; ok && d != want[i] {
			ck.fail("served %s %v seed %d: Execute renders %s, recorded %s", ki.req.Experiment, ki.req.Archs, ki.req.Seed, want[i], d)
		}
		for d, n := range ki.digests {
			if d != want[i] {
				wrong += n
				ck.fail("served %s %v seed %d: %d answers %s, want %s", ki.req.Experiment, ki.req.Archs, ki.req.Seed, n, d, want[i])
			}
		}
	}
	return ratio(float64(instr)/1e6, wall.Seconds()), wrong, nil
}

// serveLayers fills the per-layer metrics of a traced serve-zipf run.
func serveLayers(o opts, rep *report, sv *served, untraced, traced []*step, counts map[string]uint64, tr *Tracer) error {
	L := rep.Layers
	c := func(k string) float64 { return float64(counts[k]) }
	L["service.cache_hit_ratio"] = ratio(c("serve_cache_hits"), c("serve_requests"))
	L["service.store_hit_ratio"] = ratio(c("serve_store_hits"), c("serve_cache_misses"))
	L["service.coalesced_frac"] = ratio(c("serve_coalesced"), c("serve_requests"))
	L["service.simulations"] = c("serve_simulations")
	L["service.rejected_busy"] = c("serve_rejected_busy")
	sims := c("serve_simulations")
	L["pipeline.boots_per_exp"] = ratio(c("pipeline_boots"), sims)
	L["pipeline.instr_per_exp"] = ratio(c("pipeline_instructions"), sims)
	L["pipeline.sim_cycles_per_exp"] = ratio(c("pipeline_sim_cycles"), sims)
	L["pipeline.transient_decodes_per_exp"] = ratio(c("pipeline_transient_decodes"), sims)
	L["pipeline.frontend_resteers_per_exp"] = ratio(c("pipeline_frontend_resteers"), sims)
	L["pipeline.predecode_hit_ratio"] = ratio(c("pipeline_predecode_hits"), c("pipeline_predecode_hits")+c("pipeline_predecode_misses"))
	L["sweep.jobs_per_exp"] = ratio(c("sweep_jobs_done"), sims)

	var hits, misses, simMS, late, untracedHits []float64
	var wall time.Duration
	for _, st := range traced {
		wall += st.dur
		late = append(late, st.late...)
		for _, r := range st.replies {
			switch {
			case r.err != nil || r.status != http.StatusOK:
			case r.cached:
				hits = append(hits, r.latMS)
			default:
				misses = append(misses, r.latMS)
				if !r.coalesced {
					simMS = append(simMS, r.simMS)
				}
			}
		}
	}
	for _, st := range untraced {
		for _, r := range st.replies {
			if r.err == nil && r.status == http.StatusOK && r.cached {
				untracedHits = append(untracedHits, r.latMS)
			}
		}
	}
	L["sweep.worker_busy_frac"] = c("sweep_job_latency_ns.sum") / (float64(o.nproc) * float64(wall))
	L["serve.hit_p50_ms"], L["serve.miss_p50_ms"], L["serve.miss_sim_ms"] = median(hits), median(misses), median(simMS)
	rep.Timings["serve.hit_ms"], rep.Timings["serve.miss_ms"] = summarize(hits), summarize(misses)
	sort.Float64s(late)
	L["loadgen.late_p99_ms"] = percentile(late, 99)
	L["trace.overhead_pct"] = (median(hits)/median(untracedHits) - 1) * 100

	getUS, putUS, err := storeProbe(sv.dir+"-probe", sv.records, tr)
	if err != nil {
		return err
	}
	L["store.get_us"], L["store.put_us"] = getUS, putUS
	var pairs []bootPair
	for _, r := range sv.keys {
		pairs = append(pairs, bootPair{r.Archs[0], r.Seed})
	}
	bootMS, bootMB, newMS, err := bootProbe(pairs, tr)
	if err != nil {
		return err
	}
	L["kernel.boot_ms"], L["kernel.boot_alloc_mb"], L["pipeline.new_ms"] = bootMS, bootMB, newMS
	bootShares(L, L["serve.miss_sim_ms"])
	return writeSpans(o, tr)
}

// recordDigests writes perfbench/digests.json: the output digest of
// every request the workloads make at defaultSeed, up to recordRounds
// rounds of each batch workload and the hot, warm and first recordCold
// cold keys of serve-zipf.
func recordDigests(ctx context.Context, nproc int) error {
	const recordRounds, recordCold = 40, 400
	var calls []call
	for _, w := range []string{"cold-sweep", "exploit-chain"} {
		for r := 0; r < recordRounds; r++ {
			calls = append(calls, mix(w, defaultSeed, r)...)
		}
	}
	gen := newKeyGen(defaultSeed)
	for _, r := range append(append([]service.Request(nil), gen.hot...), gen.warm...) {
		calls = append(calls, call{Round: -1, Req: r})
	}
	for n := 0; n < recordCold; {
		reqs, class := gen.next()
		if class == cold {
			calls = append(calls, call{Round: -1, Req: reqs[0]})
			n++
		}
	}
	out := make([]string, len(calls))
	err := parallel(ctx, nproc, len(calls), func(i int) error {
		b, err := calls[i].exec(ctx, 1)
		if err != nil {
			// A call that fails has no output to pin; the run reports
			// its error.
			fmt.Fprintf(os.Stderr, "perfbench: not recorded: %s seed %d: %v\n", calls[i].name(), seedOf(calls[i]), err)
			return nil
		}
		out[i] = digest(b)
		return nil
	})
	if err != nil {
		return err
	}
	m := make(map[string]string, len(calls))
	for i, c := range calls {
		if out[i] != "" {
			m[c.key()] = out[i]
		}
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/digests.json", append(data, '\n'), 0o644)
}
