// Command perfbench is the repository benchmark. One run measures one
// workload for --seconds and prints, as the last line of its standard
// output, one JSON object: whether every output checked out, how many
// operations were attempted and failed, and the metrics — the
// end-to-end ones (--trace 0) or the per-layer ones (--trace 1). The
// metric names and units are those of BENCHMARK.json at the repository
// root; METRICS.md defines each and the end-to-end metric each layer
// metric should move.
//
// Workloads (all inputs derived from --seed):
//
//	cold-sweep     closed loop, one client: service.Execute of a Table 1 /
//	               Fig. 6 / KASLR / SLS / covert mix plus search.Run, per seed
//	exploit-chain  closed loop, one client: the Section 7 chain, through the
//	               MDS leak experiment on zen1 and zen2, per seed
//	serve-zipf     open loop at fixed rates against an in-process
//	               service.Server with a durable store, over loopback HTTP/2
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from the checkout. A human-readable summary goes to standard error,
// and the full result (with metadata, sample counts and the wrong
// outputs, if any) to .bench_build/results/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloads lists the runnable workloads.
var workloads = []string{"cold-sweep", "exploit-chain", "serve-zipf"}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the end-to-end metrics every workload reports with
// --trace 0, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"exp_per_s", "1/s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"alloc_mb_per_exp", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics every workload reports with
// --trace 1, from its traced run. A layer the workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"service.execute_ms.table1", "ms"},
	{"service.execute_ms.fig6", "ms"},
	{"service.execute_ms.kaslr", "ms"},
	{"service.execute_ms.sls", "ms"},
	{"service.execute_ms.covert", "ms"},
	{"service.execute_ms.mds", "ms"},
	{"search.run_ms", "ms"},
	{"search.programs_per_s", "1/s"},
	{"pipeline.boots_per_exp", "count"},
	{"pipeline.new_ms", "ms"},
	{"kernel.boot_ms", "ms"},
	{"kernel.boot_alloc_mb", "MB"},
	{"kernel.boot_share_lo", "ratio"},
	{"kernel.boot_share_hi", "ratio"},
	{"core.image_kaslr_ms", "ms"},
	{"core.physmap_kaslr_ms", "ms"},
	{"core.physaddr_ms", "ms"},
	{"core.mds_leak_ms", "ms"},
	{"pipeline.host_ns_per_instr", "ns"},
	{"pipeline.predecode_hit_ratio", "ratio"},
	{"pipeline.instr_per_exp", "count"},
	{"pipeline.sim_cycles_per_exp", "count"},
	{"pipeline.transient_decodes_per_exp", "count"},
	{"pipeline.frontend_resteers_per_exp", "count"},
	{"sweep.worker_busy_frac", "ratio"},
	{"sweep.jobs_per_exp", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.store_hit_ratio", "ratio"},
	{"service.coalesced_frac", "ratio"},
	{"service.simulations", "count"},
	{"service.rejected_busy", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_sim_ms", "ms"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "pct"},
}

// report is everything one run measured and checked.
type report struct {
	Meta      map[string]any     `json:"meta"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Timings   map[string]Timing  `json:"timings"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     []string           `json:"wrong,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
	Exact     map[string]uint64  `json:"exact,omitempty"`
	Digests   []string           `json:"digests,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// opts are the command-line settings of a run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
	start    time.Time   // process start, where set-up time begins
	rss      *rssSampler // resident memory since process start
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	o := opts{start: time.Now(), nproc: runtime.NumCPU(), rss: startRSS()}
	defer o.rss.stop()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; every input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	record := fs.Bool("record-digests", false, "write perfbench/digests.json from this tree and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *record {
		if err := recordDigests(ctx, o.nproc); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o.trace = *trace == 1
	if !slices.Contains(workloads, o.workload) || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	defer os.RemoveAll(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))

	rep := &report{
		Meta:     metadata(o),
		EndToEnd: map[string]float64{},
		Timings:  map[string]Timing{},
	}
	if o.trace {
		rep.Layers = map[string]float64{}
		for _, m := range perLayer {
			rep.Layers[m.name] = 0
		}
	}
	var err error
	if o.workload == "serve-zipf" {
		err = runServe(ctx, o, rep)
	} else {
		err = runBatchWorkload(ctx, o, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeResults(o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printSummary(o, rep)
	return printResult(o, rep)
}

// printResult writes the last line of standard output.
func printResult(o opts, rep *report) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, rep.EndToEnd
	if o.trace {
		defs, vals = perLayer, rep.Layers
	}
	metrics := make(map[string]metric, len(defs))
	for _, m := range defs {
		metrics[m.name] = metric{vals[m.name], m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.Wrong) == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printSummary writes the human-readable result to standard error:
// every metric by name with its unit, every timing with its sample
// count and tail percentile, and the wrong outputs.
func printSummary(o opts, rep *report) {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s seed %d (%gs, trace %v)\n", o.workload, o.seed, o.seconds, o.trace)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, rep.EndToEnd[m.name], m.unit)
	}
	fmt.Fprintf(w, "  %-36s %14.4f ratio (%d of %d)\n", "failed_frac", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
	names := make([]string, 0, len(rep.Timings))
	for n := range rep.Timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := rep.Timings[n]
		tail := "no tail (fewer than 10 samples beyond p50)"
		if t.TailPct > 0 {
			tail = fmt.Sprintf("p%g %.3f", t.TailPct, t.Tail)
		}
		fmt.Fprintf(w, "  %-36s p50 %.3f  %s  n=%d\n", n, t.P50, tail, t.N)
	}
	for _, m := range perLayer {
		if v, ok := rep.Layers[m.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	keys := make([]string, 0, len(rep.Exact))
	for k := range rep.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  exact %-30s %d\n", k, rep.Exact[k])
	}
	for _, d := range rep.Digests {
		fmt.Fprintf(w, "  digest %s\n", d)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, s := range rep.Wrong {
		fmt.Fprintf(w, "  WRONG: %s\n", s)
	}
	for _, s := range rep.Errors {
		fmt.Fprintf(w, "  ERROR: %s\n", s)
	}
}

// resultsDir holds each run's full report (and a traced run's spans).
const resultsDir = ".bench_build/results"

// writeResults stores the full report under resultsDir.
func writeResults(o opts, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	return writeResult(name, data)
}

// writeResult writes one file under resultsDir.
func writeResult(name string, data []byte) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultsDir, name), data, 0o644)
}

// metadata records where and how the run was made.
func metadata(o opts) map[string]any {
	// The commit as the build stamped it; a checkout without git
	// history has none.
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      o.nproc,
		"cpu":        cpu,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"date":       o.start.UTC().Format(time.RFC3339),
	}
}

// rssSampler samples the process's resident set every 20 ms.
type rssSampler struct {
	mu      sync.Mutex
	samples []rssSample
	quit    chan struct{}
	stopped sync.WaitGroup
	once    sync.Once
}

type rssSample struct {
	at time.Time
	mb float64
}

func startRSS() *rssSampler {
	r := &rssSampler{quit: make(chan struct{})}
	r.stopped.Add(1)
	go func() {
		defer r.stopped.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			r.sample()
			select {
			case <-r.quit:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// sample records the current resident set (/proc/self/statm).
func (r *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return
	}
	r.mu.Lock()
	r.samples = append(r.samples, rssSample{time.Now(), resident * float64(os.Getpagesize()) / (1 << 20)})
	r.mu.Unlock()
}

// stop ends sampling (idempotently) and returns the samples.
func (r *rssSampler) stop() []rssSample {
	r.once.Do(func() { close(r.quit) })
	r.stopped.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples
}

// peakRSSMB ends the sampling and returns the run's resident-memory
// peak: the 95th percentile of the samples, so that one transient spike
// (a GC cycle starting late) does not decide it.
func peakRSSMB(o opts) float64 {
	var mb []float64
	for _, s := range o.rss.stop() {
		mb = append(mb, s.mb)
	}
	sort.Float64s(mb)
	return percentile(mb, 95)
}

// roundPeaks ends the sampling and returns, per spell, the highest
// resident set sampled within it: the peak each timed round reached,
// which neither set-up nor the untimed work between rounds enters.
func (r *rssSampler) roundPeaks(spells [][2]time.Time) []float64 {
	samples := r.stop()
	var peaks []float64
	for _, sp := range spells {
		peak := 0.0
		for _, s := range samples {
			if !s.at.Before(sp[0]) && !s.at.After(sp[1]) {
				peak = max(peak, s.mb)
			}
		}
		if peak > 0 {
			peaks = append(peaks, peak)
		}
	}
	return peaks
}
