// Command phantom regenerates the tables and figures of "Phantom:
// Exploiting Decoder-detectable Mispredictions" (MICRO 2023) on the
// simulated machines.
//
// Usage:
//
//	phantom <experiment> [flags]
//
// `phantom help` lists the experiments: one per entry of the service
// registry (internal/service), plus search (differential fuzzing of the
// speculation model) and all (everything with default parameters).
// Each experiment's flags come from its registry entry.
//
// Common flags: -arch, -seed, -runs, -jobs; see -h of each experiment.
// Multi-run experiments fan their (arch, reboot) jobs over a worker pool
// of -jobs workers (default GOMAXPROCS); every run derives its own seed,
// so the output is byte-identical whatever the pool size.
//
// Text output renders through the same engine as cmd/phantom-server
// (internal/service.Execute), so a served result is byte-identical to
// the CLI's stdout for the same request; -json emits the documents that
// rendering is made from (service.Evaluate) instead.
//
// Telemetry flags (before the experiment name):
//
//	phantom -metrics run.jsonl -progress -debug-addr localhost:6060 kaslr -runs 100
//
// -metrics writes a JSONL run log (one record per sweep job plus a final
// summary; schema in DESIGN.md), -progress renders a live stderr status
// line for the sweeps, and -debug-addr serves net/http/pprof and a
// /metrics snapshot while the experiment runs. Telemetry observes the
// harness only: experiment output stays byte-identical with it on, off,
// or sampled (-metrics-sample N).
//
// SIGINT/SIGTERM cancel the in-flight sweep jobs, flush the -metrics
// run log (the summary record is written even for an interrupted run),
// and exit 1 — an interrupted run leaves a readable log, not a
// truncated one.
//
// Exit codes: 0 on success, 1 on runtime errors, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"phantom/internal/service"
	"phantom/internal/telemetry"
)

func main() {
	// NotifyContext is the interrupt path: the first SIGINT/SIGTERM
	// cancels the context (jobs unwind, telemetry flushes, exit 1); a
	// second signal hits the now-restored default handler and kills a
	// hung process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMainCtx(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks command-line mistakes; realMain turns it into exit
// code 2 (runtime failures exit 1).
var errUsage = errors.New("usage error")

// parseFlags parses a subcommand flag set, folding parse failures into
// the usage-error exit path.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp // usage already printed; exits 0
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

// realMain runs the CLI and returns the process exit code (kept for
// tests that don't exercise cancellation or capture stdout).
func realMain(args []string, stderr io.Writer) int {
	return realMainCtx(context.Background(), args, os.Stdout, stderr)
}

// realMainCtx is the testable CLI entry point: ctx cancellation stands
// in for SIGINT/SIGTERM, stdout receives experiment output, stderr
// diagnostics. Whatever cancels the run, the telemetry teardown below
// still executes, so an interrupted -metrics run log always ends with
// its summary record.
func realMainCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	top := flag.NewFlagSet("phantom", flag.ContinueOnError)
	top.SetOutput(stderr)
	top.Usage = func() { usage(stderr) }
	metricsPath := top.String("metrics", "", "write a JSONL telemetry run log to this file")
	metricsSample := top.Int("metrics-sample", 1, "record every Nth sweep job in the run log and latency histogram")
	progress := top.Bool("progress", false, "render a live sweep progress line on stderr")
	debugAddr := top.String("debug-addr", "", "serve net/http/pprof and /metrics on this address while running")
	if err := top.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	rest := top.Args()
	if len(rest) == 0 {
		usage(stderr)
		return 2
	}
	cmd, cargs := rest[0], rest[1:]
	switch cmd {
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	}
	if _, ok := lookupCommand(cmd); !ok {
		fmt.Fprintf(stderr, "phantom: unknown experiment %q\n\n", cmd)
		usage(stderr)
		return 2
	}

	// Telemetry session: enabled by any of the observability flags,
	// torn down (summary record, final progress line) before exit.
	tcfg := telemetry.Config{Label: cmd, SampleEvery: *metricsSample, Progress: nil}
	enable := false
	var logFile *os.File
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(stderr, "phantom: -metrics: %v\n", err)
			return 1
		}
		logFile = f
		tcfg.RunLog = f
		enable = true
	}
	if *progress {
		tcfg.Progress = stderr
		enable = true
	}
	var debug *telemetry.DebugServer
	if *debugAddr != "" {
		srv, err := telemetry.StartDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "phantom: %v\n", err)
			return 1
		}
		debug = srv
		fmt.Fprintf(stderr, "phantom: debug server on http://%s (/metrics, /debug/pprof)\n", srv.Addr())
		enable = true
	}
	if enable {
		telemetry.Enable(tcfg)
	}

	err := runCommand(ctx, stdout, cmd, cargs)

	code := 0
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		fmt.Fprintf(stderr, "phantom %s: %v\n", cmd, err)
		code = 2
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		fmt.Fprintf(stderr, "phantom %s: interrupted\n", cmd)
		code = 1
	default:
		fmt.Fprintf(stderr, "phantom %s: %v\n", cmd, err)
		code = 1
	}
	if enable {
		if derr := telemetry.Disable(); derr != nil && code == 0 {
			fmt.Fprintf(stderr, "phantom: telemetry: %v\n", derr)
			code = 1
		}
	}
	if logFile != nil {
		if cerr := logFile.Close(); cerr != nil && code == 0 {
			fmt.Fprintf(stderr, "phantom: -metrics: %v\n", cerr)
			code = 1
		}
	}
	if debug != nil {
		debug.Close()
	}
	return code
}

// A command is one subcommand: it defines its flags on fs and returns
// the function that runs it once fs has parsed the arguments. Commands
// write experiment output to w only — diagnostics go to the process
// stderr.
type command func(fs *flag.FlagSet) func(ctx context.Context, w io.Writer) error

// lookupCommand resolves a subcommand: one generic command per
// registry experiment, plus search and all.
func lookupCommand(name string) (command, bool) {
	switch name {
	case "search":
		return cmdSearch, true
	case "all":
		return cmdAll, true
	}
	e, ok := service.Lookup(name)
	if !ok {
		return nil, false
	}
	return experimentCommand(e), true
}

// runCommand parses args into the named subcommand's flags and runs it.
func runCommand(ctx context.Context, w io.Writer, name string, args []string) error {
	cmd, ok := lookupCommand(name)
	if !ok {
		return fmt.Errorf("%w: unknown experiment %q", errUsage, name)
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	run := cmd(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return run(ctx, w)
}

// experimentCommand is the CLI of one registry entry: -arch if it takes
// an arch list, -seed, a flag per request field it consumes, -jobs if it
// runs on the worker pool and -json if it has documents to encode. The
// flags fill a service.Request, which is normalized exactly as the
// server does, so a bad value is a usage error rather than a panic.
func experimentCommand(e service.Experiment) command {
	return func(fs *flag.FlagSet) func(context.Context, io.Writer) error {
		req := service.Request{Experiment: e.Name}
		var arch string
		if e.Archs != nil {
			fs.StringVar(&arch, "arch", strings.Join(e.Archs, ","), "microarchitecture(s): name, comma list, amd, or all")
		}
		fs.Int64Var(&req.Seed, "seed", e.Seed, "random seed")
		for _, p := range e.Params {
			switch v := p.Field(&req).(type) {
			case *int:
				fs.IntVar(v, p.Name, int(p.Default), p.Usage())
			case *float64:
				fs.Float64Var(v, p.Name, p.Default, p.Usage())
			}
		}
		var jobs int
		if e.Jobs {
			fs.IntVar(&jobs, "jobs", 0, "parallel workers (0 = GOMAXPROCS, 1 = sequential)")
		}
		var asJSON bool
		if e.JSON {
			fs.BoolVar(&asJSON, "json", false, "emit JSON instead of text")
		}
		return func(ctx context.Context, w io.Writer) error {
			if e.Archs != nil {
				req.Archs = splitArchs(arch)
			}
			n, err := req.Normalize()
			if err != nil {
				return fmt.Errorf("%w: %v", errUsage, err)
			}
			if asJSON {
				docs, err := service.Evaluate(ctx, n, jobs)
				if err != nil {
					return err
				}
				for _, d := range docs {
					if err := emitJSON(w, d); err != nil {
						return err
					}
				}
				return nil
			}
			if e.Hint != "" {
				// Progress hint, not experiment output: stderr, so stdout
				// stays byte-identical to the served result.
				fmt.Fprintf(os.Stderr, e.Hint+"\n", strings.Join(n.Archs, ", "))
			}
			return service.Execute(ctx, w, n, jobs)
		}
	}
}

// splitArchs splits a comma-separated -arch value into the names (or
// aliases) service.Request carries.
func splitArchs(spec string) []string {
	out := strings.Split(spec, ",")
	for i, s := range out {
		out[i] = strings.TrimSpace(s)
	}
	return out
}

func usage(w io.Writer) {
	fmt.Fprint(w, `phantom — reproduce the MICRO'23 Phantom paper on a simulated machine

usage: phantom [-metrics file] [-progress] [-debug-addr addr] <experiment> [flags]

experiments:
`)
	for _, e := range service.Registry() {
		fmt.Fprintf(w, "  %-12s %s\n", e.Name, e.Usage)
	}
	fmt.Fprint(w, `  search       differential fuzzing of the speculation model
  all          run everything with defaults

serving: the same experiments are available over HTTP from the
phantom-server binary (see EXPERIMENTS.md, "Serving mode").
`)
}

// emitJSON pretty-prints v to w.
func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// allSteps builds the `phantom all` schedule. Every step receives the
// shared -seed (`phantom all -seed 42` must run the *whole* sweep at 42,
// not just table1), and the sweep-backed steps receive -jobs.
func allSteps(seed int64, runs, jobs int) [][]string {
	s := fmt.Sprint(seed)
	r := fmt.Sprint(runs)
	j := fmt.Sprint(jobs)
	return [][]string{
		{"table1", "-seed", s},
		{"fig6", "-seed", s, "-jobs", j},
		{"fig7", "-seed", s, "-jobs", j},
		{"covert", "-seed", s, "-bits", "1024", "-runs", "5", "-jobs", j},
		{"kaslr", "-seed", s, "-runs", r, "-jobs", j},
		{"physmap", "-seed", s, "-runs", r, "-jobs", j},
		{"physaddr", "-seed", s, "-runs", r, "-jobs", j},
		{"mds", "-seed", s, "-runs", "5", "-bytes", "1024", "-jobs", j},
		{"mitigations", "-seed", s},
		{"sls", "-seed", s},
		{"chain", "-seed", s},
	}
}

func cmdAll(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	seed := fs.Int64("seed", 1, "random seed, forwarded to every step")
	runs := fs.Int("runs", 10, "reboots for the multi-run experiments")
	jobs := fs.Int("jobs", 0, "parallel workers per step (0 = GOMAXPROCS, 1 = sequential)")
	return func(ctx context.Context, w io.Writer) error {
		for _, s := range allSteps(*seed, *runs, *jobs) {
			if err := ctx.Err(); err != nil {
				return err
			}
			fmt.Fprintf(w, "\n===== phantom %s =====\n", strings.Join(s, " "))
			if err := runCommand(ctx, w, s[0], s[1:]); err != nil {
				return fmt.Errorf("%s: %w", s[0], err)
			}
		}
		return nil
	}
}
