package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"phantom"
	"phantom/internal/sweep"
)

// Experiment declares one servable experiment, once: the request fields
// it consumes and their defaults, how heavy it is, how to evaluate it
// and how to render the result. Normalize, Execute, Timeout and the
// phantom CLI (its flags, -json and help text) all read this one entry,
// so adding an experiment is one registry entry plus its golden file.
type Experiment struct {
	// Name is the experiment name, exactly as the CLI and the API spell
	// it.
	Name string
	// Usage is the one-line description `phantom help` lists.
	Usage string
	// Archs is the default arch list, spelled as a client would: names
	// or the aliases "all" / "amd". Nil means the experiment takes no
	// arch list.
	Archs []string
	// Seed is the default seed.
	Seed int64
	// Params are the optional Request fields the experiment consumes,
	// with their defaults. Normalize forces every other field to zero so
	// it cannot split the cache.
	Params []Param
	// Jobs reports whether the CLI offers -jobs, because the
	// experiment's runs go on the sweep worker pool. An entry without it
	// that evaluates per arch still runs its arches on the pool, at the
	// default size from the CLI.
	Jobs bool
	// JSON reports whether the CLI offers -json, which encodes each
	// document Evaluate returns as one JSON value.
	JSON bool
	// Hint, when set, is a progress note the CLI prints on stderr before
	// a text run; %s is the comma-separated arch list.
	Hint string

	// weight scales the server's per-experiment deadline (see
	// Config.BaseTimeout): heavier experiments get proportionally more.
	weight int
	// run evaluates a normalized request, given as the options Evaluate
	// builds from it and its arch list, into its result documents.
	run func(o phantom.Options, archs []phantom.Microarch) ([]any, error)
	// text renders run's documents; nil prints each on its own line.
	text func(w io.Writer, req Request, docs []any)
}

// Param is an optional numeric Request field an experiment consumes.
type Param struct {
	// Name is the field's JSON name, which is also its CLI flag.
	Name string
	// Default is the value a zero field stands for.
	Default float64
}

// fields are the optional numeric Request fields, in the order
// Normalize validates them.
var fields = []struct {
	name, usage string
	ptr         func(*Request) any // *int, or *float64 for noise
}{
	{"trials", "per-cell trials", func(r *Request) any { return &r.Trials }},
	{"noise", "noise level (0 = lab conditions)", func(r *Request) any { return &r.Noise }},
	{"bits", "message bits per run", func(r *Request) any { return &r.Bits }},
	{"runs", "runs (reboots) per measurement", func(r *Request) any { return &r.Runs }},
	{"bytes", "bytes to leak per run", func(r *Request) any { return &r.Bytes }},
	{"samples", "independent collisions to gather", func(r *Request) any { return &r.Samples }},
}

// Usage is the field's CLI help text.
func (p Param) Usage() string {
	for _, f := range fields {
		if f.name == p.Name {
			return f.usage
		}
	}
	return ""
}

// Field returns a pointer to r's field named by p: an *int, or a
// *float64 for noise.
func (p Param) Field(r *Request) any {
	for _, f := range fields {
		if f.name == p.Name {
			return f.ptr(r)
		}
	}
	panic("service: unknown request field " + p.Name)
}

// registry is the catalog of servable experiments in the order the CLI
// lists them. Normalize's defaults come from here, and so do the CLI's
// flag defaults: both front ends agree by construction.
var registry = []Experiment{
	{
		Name: "table1", Usage: "training×victim misprediction matrix (Table 1)",
		Archs: []string{"all"}, Seed: 1, Params: []Param{{"trials", 6}, {"noise", 0}},
		JSON: true, weight: 2,
		run: func(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
			return perArch(o, archs, func(o phantom.Options, a phantom.Microarch) (*phantom.Table1, error) {
				return phantom.RunTable1(a, o)
			})
		},
	},
	{
		Name: "fig6", Usage: "speculative decode vs page offset (Figure 6)",
		Archs: []string{"zen2", "zen4"}, Seed: 1, Jobs: true, JSON: true, weight: 1,
		run: func(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
			return each(phantom.RunFig6(archs, o))
		},
	},
	{
		Name: "fig7", Usage: "BTB index-function recovery (Figure 7)",
		Archs: []string{"zen3"}, Seed: 9, Params: []Param{{"samples", 22}},
		Jobs: true, JSON: true, weight: 4,
		Hint: "recovering BTB functions on %s (sampling may take ~10s)...",
		run: func(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
			return each(phantom.RunFig7(archs, o))
		},
	},
	{
		Name: "covert", Usage: "fetch/execute covert channels (Table 2)",
		Archs: []string{"amd"}, Seed: 1, Params: []Param{{"bits", 4096}, {"runs", 10}},
		Jobs: true, JSON: true, weight: 3,
		run: func(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
			fetch, err := phantom.RunTable2Fetch(archs, o)
			if err != nil {
				return nil, err
			}
			exec, err := phantom.RunTable2Execute(archs, o)
			return one(covertResult{Execute: exec, Fetch: fetch}, err)
		},
		text: func(w io.Writer, _ Request, docs []any) {
			r := docs[0].(covertResult)
			fmt.Fprint(w, phantom.FormatTable2("Table 2 (top) — fetch covert channel (P1)", r.Fetch))
			fmt.Fprintln(w)
			fmt.Fprint(w, phantom.FormatTable2("Table 2 (bottom) — execute covert channel (P2)", r.Execute))
		},
	},
	{
		Name: "kaslr", Usage: "kernel image KASLR break (Table 3)",
		Archs: []string{"zen2", "zen3", "zen4"}, Seed: 1, Params: []Param{{"runs", 20}},
		Jobs: true, JSON: true, weight: 3,
		run: func(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
			return one(phantom.RunTable3(archs, o))
		},
		text: derandText("Table 3 — kernel image KASLR via P1 (%d runs)"),
	},
	{
		Name: "physmap", Usage: "physmap KASLR break (Table 4)",
		Archs: []string{"zen1", "zen2"}, Seed: 1, Params: []Param{{"runs", 10}},
		Jobs: true, JSON: true, weight: 3,
		run: func(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
			return one(phantom.RunTable4(archs, o))
		},
		text: derandText("Table 4 — physmap KASLR via P2 (%d runs)"),
	},
	{
		Name: "physaddr", Usage: "physical address derandomization (Table 5)",
		Seed: 1, Params: []Param{{"runs", 20}}, Jobs: true, JSON: true, weight: 4,
		run: func(o phantom.Options, _ []phantom.Microarch) ([]any, error) {
			return one(phantom.RunTable5(o))
		},
		text: derandText("Table 5 — physical address of a user page (%d runs)"),
	},
	{
		Name: "mds", Usage: "MDS-gadget kernel memory leak (Section 7.4)",
		Archs: []string{"zen2"}, Seed: 1, Params: []Param{{"runs", 10}, {"bytes", 4096}},
		Jobs: true, JSON: true, weight: 4,
		run: func(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
			return perArch(o, archs, func(o phantom.Options, a phantom.Microarch) (*phantom.MDSReport, error) {
				return phantom.RunMDSExperiment(a, o)
			})
		},
	},
	{
		Name: "mitigations", Usage: "mitigation evaluation (Sections 6.3, 8)",
		Archs: []string{"amd"}, Seed: 1, JSON: true, weight: 2,
		run: func(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
			return perArch(o, archs, func(o phantom.Options, a phantom.Microarch) (*phantom.MitigationSummary, error) {
				return phantom.RunMitigations(a, o)
			})
		},
	},
	{
		Name: "sls", Usage: "straight-line speculation cell (Table 1, footnote c)",
		Archs: []string{"all"}, Seed: 1, weight: 2,
		run:  runSLS,
		text: textSLS,
	},
	{
		Name: "report", Usage: "full paper-vs-measured Markdown report",
		Seed: 1, Params: []Param{{"runs", 10}, {"bits", 1024}}, Jobs: true, weight: 10,
		run: func(o phantom.Options, _ []phantom.Microarch) ([]any, error) {
			var b bytes.Buffer
			err := phantom.GenerateReport(&b, phantom.ReportOptions{Options: o})
			return one(b.String(), err)
		},
		text: func(w io.Writer, _ Request, docs []any) { io.WriteString(w, docs[0].(string)) },
	},
	{
		Name: "chain", Usage: "full Section 7 exploit chain",
		Archs: []string{"zen2"}, Seed: 1, weight: 3,
		run:  runChain,
		text: textChain,
	},
}

// Registry returns the experiment catalog in the order the CLI lists
// it.
func Registry() []Experiment { return slices.Clone(registry) }

// Lookup returns the named experiment's registry entry.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Experiments lists the servable experiment names in sorted order (the
// /v1/arches handler).
func Experiments() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

// Execute runs one request and writes the experiment's text rendering
// to w. This is the single rendering engine behind both front ends:
// cmd/phantom calls it for its (non-JSON) stdout and cmd/phantom-server
// for response bodies, which is what makes served results
// byte-identical to CLI output by construction (and pinned by
// TestServedOutputMatchesCLI).
//
// Execute normalizes req itself, so a raw request gets the documented
// defaults and validation whichever front end (or library caller)
// hands it over. ctx bounds the evaluation — it is the Context of the
// phantom.Options every experiment runs with, so cancellation or an
// expired deadline aborts the underlying sweep jobs. jobs sizes the
// worker pool of the sweep-backed experiments (0 = GOMAXPROCS); it
// never changes the output, only how fast it is produced.
func Execute(ctx context.Context, w io.Writer, req Request, jobs int) error {
	req, err := req.Normalize()
	if err != nil {
		return err
	}
	docs, err := Evaluate(ctx, req, jobs)
	if err != nil {
		return err
	}
	if e, _ := Lookup(req.Experiment); e.text != nil {
		e.text(w, req, docs)
		return nil
	}
	for _, d := range docs {
		fmt.Fprintln(w, d)
	}
	return nil
}

// Evaluate normalizes and runs one request and returns its result
// documents: the values Execute renders as text, and that `phantom
// <experiment> -json` encodes as one JSON value each.
func Evaluate(ctx context.Context, req Request, jobs int) ([]any, error) {
	req, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, _ := Lookup(req.Experiment)
	return e.run(phantom.Options{
		Context: ctx, Seed: req.Seed, Jobs: jobs,
		Trials: req.Trials, Noise: req.Noise, Bits: req.Bits,
		Runs: req.Runs, Bytes: req.Bytes, Samples: req.Samples,
	}, microarchs(req.Archs))
}

// each wraps a result slice as documents, one per element.
func each[T any](xs []T, err error) ([]any, error) {
	if err != nil {
		return nil, err
	}
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out, nil
}

// one wraps a single result as the only document.
func one[T any](v T, err error) ([]any, error) {
	if err != nil {
		return nil, err
	}
	return []any{v}, nil
}

// perArch evaluates f on each arch on the sweep pool of o.Jobs
// workers, one document per arch in arch order, so the output is the
// same at any pool size. Each call gets a copy of o whose Context is
// its job's, so cancellation reaches every arch.
func perArch[T any](o phantom.Options, archs []phantom.Microarch, f func(phantom.Options, phantom.Microarch) (T, error)) ([]any, error) {
	return each(sweep.Run(o.Context, len(archs), sweep.Options{Jobs: o.Jobs}, func(ctx context.Context, i int) (T, error) {
		jo := o
		jo.Context = ctx
		return f(jo, archs[i])
	}))
}

// covertResult is Table 2: both covert channels of one request. The
// fields are in the order encoding/json used for the map it replaces,
// so -json output is unchanged.
type covertResult struct {
	Execute []phantom.Table2Row `json:"execute"`
	Fetch   []phantom.Table2Row `json:"fetch"`
}

// derandText renders a derandomization table; title takes the run
// count.
func derandText(title string) func(io.Writer, Request, []any) {
	return func(w io.Writer, req Request, docs []any) {
		fmt.Fprint(w, phantom.FormatDerand(fmt.Sprintf(title, req.Runs), docs[0].([]phantom.DerandRow)))
	}
}

// slsCell is one arch's straight-line-speculation cell of Table 1.
type slsCell struct {
	arch  phantom.Microarch
	reach phantom.StageReach
}

// runSLS measures the straight-line-speculation cell (Table 1,
// footnote c): the non-branch-trained ret victim.
func runSLS(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
	o.Trials = 4
	return perArch(o, archs, func(o phantom.Options, a phantom.Microarch) (slsCell, error) {
		tb, err := phantom.RunTable1(a, o)
		if err != nil {
			return slsCell{}, err
		}
		c := slsCell{arch: a}
		for _, row := range tb.Cells {
			for _, cell := range row {
				if cell.Training == "non-branch" && cell.Victim == "ret" {
					c.reach = cell.Reach
				}
			}
		}
		return c, nil
	})
}

func textSLS(w io.Writer, _ Request, docs []any) {
	fmt.Fprintln(w, "Straight-line speculation past an unpredicted return (Spectre-SLS,")
	fmt.Fprintln(w, "Table 1 footnote c): the sequential bytes after a ret execute")
	fmt.Fprintln(w, "transiently on AMD parts; Intel frontends stall instead.")
	fmt.Fprintln(w)
	for _, d := range docs {
		c := d.(slsCell)
		fmt.Fprintf(w, "  %-26s %v\n", c.arch.ModelName(), c.reach)
	}
}

// chainRun is the full Section 7 exploit chain on one boot.
type chainRun struct {
	arch                 phantom.Microarch
	image, physmap, page *phantom.KASLRResult
	secretVA             uint64
	secret               []byte
	leak                 *phantom.LeakResult
	// leakErr is the leak step coming up empty on this boot: a chain
	// result, not a harness error — steps 1-3 likewise report
	// correct=false rather than aborting. A nil page means steps 3 and 4
	// did not run, because step 1 or 2 found no candidate base.
	leakErr error
}

func runChain(o phantom.Options, archs []phantom.Microarch) ([]any, error) {
	return perArch(o, archs, func(o phantom.Options, a phantom.Microarch) (*chainRun, error) {
		sys, err := phantom.NewSystem(a, phantom.SystemConfig{Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		c := &chainRun{arch: a}
		if c.image, err = sys.BreakImageKASLR(); err != nil {
			return nil, err
		}
		if c.physmap, err = sys.BreakPhysmapKASLR(c.image.Guess); err != nil {
			return nil, err
		}
		c.secretVA, c.secret = sys.SecretAddr()
		if c.image.Guess == 0 || c.physmap.Guess == 0 {
			// An unlucky boot (the paper's own success rates are below
			// 100%): the later steps have no base to build on.
			return c, nil
		}
		if c.page, err = sys.FindPhysAddr(c.image.Guess, c.physmap.Guess); err != nil {
			return nil, err
		}
		c.leak, c.leakErr = sys.LeakKernelMemory(c.secretVA, 64)
		return c, nil
	})
}

func textChain(w io.Writer, req Request, docs []any) {
	for _, d := range docs {
		c := d.(*chainRun)
		fmt.Fprintf(w, "=== Full exploit chain on %s (seed %d) ===\n", c.arch.ModelName(), req.Seed)
		fmt.Fprintf(w, "1. kernel image:  %#x  correct=%v  (%.4fs sim)\n", c.image.Guess, c.image.Correct, c.image.Seconds)
		fmt.Fprintf(w, "2. physmap:       %#x  correct=%v  (%.4fs sim)\n", c.physmap.Guess, c.physmap.Correct, c.physmap.Seconds)
		if c.page == nil {
			fmt.Fprintln(w, "3. page phys:     not run on this boot (no image or physmap base)")
			fmt.Fprintf(w, "4. leak @ %#x: not run on this boot\n", c.secretVA)
			continue
		}
		fmt.Fprintf(w, "3. page phys:     %#x  correct=%v  (%.4fs sim)\n", c.page.Guess, c.page.Correct, c.page.Seconds)
		if c.leakErr != nil {
			fmt.Fprintf(w, "4. leak @ %#x: failed on this boot: %v\n", c.secretVA, c.leakErr)
			continue
		}
		fmt.Fprintf(w, "4. leak @ %#x: accuracy %.2f%%, %.0f B/s sim\n", c.secretVA, c.leak.AccuracyPct, c.leak.BytesPerSecond)
		fmt.Fprintf(w, "   leaked: % x\n", clip(c.leak.Leaked, 16))
		fmt.Fprintf(w, "   truth:  % x\n", clip(c.secret, 16))
	}
}

// clip returns at most the first n bytes of b, so a short leak result
// prints what it has instead of panicking.
func clip(b []byte, n int) []byte {
	if len(b) < n {
		return b
	}
	return b[:n]
}
