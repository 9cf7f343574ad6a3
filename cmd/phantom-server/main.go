// Command phantom-server serves the phantom experiments over HTTP: a
// long-running process that answers the same questions as the one-shot
// CLI, but with a content-addressed result cache, request coalescing,
// and bounded-queue backpressure in front of the simulator.
//
// Usage:
//
//	phantom-server [-addr host:port] [flags]
//
// API (JSON; see EXPERIMENTS.md "Serving mode" for curl examples):
//
//	POST /v1/experiments     {"experiment":"kaslr","archs":["zen3"],"runs":20}
//	                         or a JSON array of such objects (batch)
//	GET  /v1/results/{id}    re-fetch a cached result by content address
//	GET  /v1/arches          servable experiments, arches, aliases
//	GET  /healthz            liveness    GET /readyz   readiness (503 draining)
//	GET  /metrics            telemetry snapshot (JSON; ?format=text)
//
// Results are deterministic in (experiment, archs, seed, options), so
// the response body's "output" field is byte-identical to the phantom
// CLI's stdout for the same request, cache hits included.
//
// Overload returns 429 with a Retry-After estimate instead of queueing
// unboundedly. SIGINT/SIGTERM drain gracefully: readiness flips to 503,
// admitted evaluations finish, then the listener closes; a drain that
// exceeds -drain-timeout exits 1 with whatever was still running
// cancelled.
//
// -store-dir adds a durable tier under the cache: every computed result
// is written through to an append-only on-disk store, and a restarted
// server answers previously computed requests from disk without
// re-simulating. -jobs sizes each evaluation's sweep pool, which also
// runs the arches of a multi-arch request in parallel.
//
// Exit codes: 0 clean shutdown, 1 runtime errors, 2 usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"phantom/internal/service"
	"phantom/internal/store"
	"phantom/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stderr))
}

// realMain runs the server until ctx is cancelled (the signal path) and
// returns the process exit code. Factored from main for tests.
func realMain(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("phantom-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8437", "listen address (port 0 picks an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	workers := fs.Int("workers", 0, "concurrent evaluations (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "queued evaluations beyond the running ones before 429 (0 = 2x workers)")
	jobs := fs.Int("jobs", 0, "sweep workers per evaluation (0 = GOMAXPROCS/workers)")
	cacheMB := fs.Int64("cache-mb", 64, "result cache budget in MiB (negative disables caching)")
	baseTimeout := fs.Duration("timeout", time.Minute, "base per-evaluation deadline; heavy experiments get a multiple of it")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight evaluations")
	metricsPath := fs.String("metrics", "", "write a JSONL telemetry run log to this file")
	metricsSample := fs.Int("metrics-sample", 1, "record every Nth sweep job in the run log and latency histogram")
	storeDir := fs.String("store-dir", "", "durable result store directory (empty disables the store)")
	storeBudget := fs.Int64("store-budget", 0, "store size budget in MiB before eviction + compaction (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "phantom-server: unexpected arguments %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *storeBudget < 0 {
		fmt.Fprintf(stderr, "phantom-server: -store-budget must be >= 0\n")
		return 2
	}

	// The telemetry hub is always on in the server — /metrics is part of
	// the API — with the run log as an optional extra sink.
	tcfg := telemetry.Config{Label: "serve", SampleEvery: *metricsSample}
	var logFile *os.File
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(stderr, "phantom-server: -metrics: %v\n", err)
			return 1
		}
		logFile = f
		tcfg.RunLog = f
	}
	telemetry.Enable(tcfg)
	code := 0
	defer func() {
		if err := telemetry.Disable(); err != nil && code == 0 {
			fmt.Fprintf(stderr, "phantom-server: telemetry: %v\n", err)
			code = 1
		}
		if logFile != nil {
			if err := logFile.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "phantom-server: -metrics: %v\n", err)
				code = 1
			}
		}
	}()

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{Budget: *storeBudget << 20})
		if err != nil {
			fmt.Fprintf(stderr, "phantom-server: -store-dir: %v\n", err)
			code = 1
			return code
		}
		defer func() {
			if err := st.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "phantom-server: store close: %v\n", err)
				code = 1
			}
		}()
		sst := st.Stats()
		fmt.Fprintf(stderr, "phantom-server: store %s: %d records in %d segments (%d corrupt skipped, %d torn truncated)\n",
			*storeDir, sst.Records, sst.Segments, sst.CorruptSkipped, sst.TornTruncated)
	}

	svc := service.NewServer(service.Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		Jobs:        *jobs,
		CacheBytes:  *cacheMB << 20,
		BaseTimeout: *baseTimeout,
		Store:       st,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "phantom-server: %v\n", err)
		code = 1
		return code
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "phantom-server: -addr-file: %v\n", err)
			ln.Close()
			code = 1
			return code
		}
	}
	fmt.Fprintf(stderr, "phantom-server: listening on http://%s\n", bound)

	httpSrv := &http.Server{
		Handler: svc.Handler(),
		// BaseContext ties request contexts to the process context, so a
		// drain also cancels evaluations whose clients are still
		// connected once the drain deadline passes.
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "phantom-server: %v\n", err)
		code = 1
		return code
	case <-ctx.Done():
	}

	fmt.Fprintf(stderr, "phantom-server: draining (max %s)...\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintf(stderr, "phantom-server: drain: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "phantom-server: shutdown: %v\n", err)
		code = 1
	}
	if code == 0 {
		fmt.Fprintf(stderr, "phantom-server: drained cleanly\n")
	}
	return code
}
