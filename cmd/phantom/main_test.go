package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"phantom/internal/service"
)

// TestExitCodes pins the CLI convention shared by all three binaries:
// 0 success, 1 runtime error, 2 usage error. Every experiment request
// is normalized before it runs, so out-of-range values are usage errors
// rather than panics, and a defaulted value shows in the output as the
// value that actually ran.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stdout string // substring stdout must contain, if set
	}{
		{"no args", nil, 2, ""},
		{"unknown experiment", []string{"frobnicate"}, 2, ""},
		{"bad top-level flag", []string{"-definitely-not-a-flag", "table1"}, 2, ""},
		{"bad subcommand flag", []string{"table1", "-definitely-not-a-flag"}, 2, ""},
		{"help", []string{"help"}, 0, ""},
		{"help flag", []string{"-h"}, 0, ""},
		{"unknown arch", []string{"mitigations", "-arch", "i486"}, 2, ""},
		{"negative runs", []string{"kaslr", "-runs", "-1"}, 2, ""},
		{"negative bits", []string{"covert", "-bits", "-5"}, 2, ""},
		{"zero runs means the default", []string{"kaslr", "-arch", "zen2", "-runs", "0"}, 0, "(20 runs)"},
		{"runtime error", []string{"search", "-arch", "i486", "-budget", "1"}, 1, ""},
		{"bad metrics path", []string{"-metrics", filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl"), "table1"}, 1, ""},
	}
	for _, c := range cases {
		var stdout bytes.Buffer
		if got := realMainCtx(context.Background(), c.args, &stdout, io.Discard); got != c.want {
			t.Errorf("%s: realMain(%v) = %d, want %d", c.name, c.args, got, c.want)
		}
		if !strings.Contains(stdout.String(), c.stdout) {
			t.Errorf("%s: stdout of %v lacks %q:\n%s", c.name, c.args, c.stdout, &stdout)
		}
	}
}

// TestMetricsRunLog runs a small experiment with -metrics and checks the
// produced run log is valid JSONL ending in a summary record.
func TestMetricsRunLog(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke run")
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	args := []string{"-metrics", path, "-metrics-sample", "2",
		"kaslr", "-arch", "zen2", "-runs", "2", "-jobs", "2"}

	// The experiment prints its table to stdout; silence it for the test.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	code := realMain(args, io.Discard)
	os.Stdout = old
	devnull.Close()
	if code != 0 {
		t.Fatalf("realMain(%v) = %d", args, code)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var types []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		typ, _ := rec["type"].(string)
		if typ == "" {
			t.Fatalf("record without type: %q", sc.Text())
		}
		types = append(types, typ)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 {
		t.Fatal("empty run log")
	}
	if got := types[len(types)-1]; got != "summary" {
		t.Errorf("last record type = %q, want summary", got)
	}
	seen := map[string]bool{}
	for _, typ := range types {
		seen[typ] = true
	}
	for _, want := range []string{"sweep_start", "job", "sweep_end", "summary"} {
		if !seen[want] {
			t.Errorf("run log has no %q record (types: %v)", want, types)
		}
	}
}

func TestAllStepsForwardSeedEverywhere(t *testing.T) {
	// Regression: `phantom all -seed 42` used to forward -seed only to
	// table1, silently running the other ten steps at the default seed.
	steps := allSteps(42, 7, 3)
	stepped := map[string]bool{}
	for _, s := range steps {
		stepped[s[0]] = true
	}
	// Every experiment is a step, except the report, which reruns them
	// all.
	for _, e := range service.Registry() {
		if !stepped[e.Name] && e.Name != "report" {
			t.Errorf("experiment %q is not a step of phantom all", e.Name)
		}
	}
	for _, s := range steps {
		if _, ok := service.Lookup(s[0]); !ok {
			t.Errorf("step %q is not a registry experiment", s[0])
		}
		seeded := false
		for i, a := range s[:len(s)-1] {
			if a == "-seed" && s[i+1] == "42" {
				seeded = true
			}
		}
		if !seeded {
			t.Errorf("step %v does not forward -seed 42", s)
		}
	}
}

func TestAllStepsForwardJobsToSweeps(t *testing.T) {
	for _, s := range allSteps(1, 5, 4) {
		if e, _ := service.Lookup(s[0]); e.Jobs {
			forwarded := false
			for i, a := range s[:len(s)-1] {
				if a == "-jobs" && s[i+1] == "4" {
					forwarded = true
				}
			}
			if !forwarded {
				t.Errorf("sweep step %v does not forward -jobs 4", s)
			}
		}
	}
}

// TestParseArchs checks how an -arch value becomes the request's arch
// list: split on commas, then normalized exactly as the server does.
func TestParseArchs(t *testing.T) {
	parse := func(spec string) ([]string, error) {
		n, err := service.Request{Experiment: "table1", Archs: splitArchs(spec)}.Normalize()
		return n.Archs, err
	}
	all, err := parse("all")
	if err != nil || len(all) != 8 {
		t.Fatalf("all: %v, %v", all, err)
	}
	amd, err := parse("amd")
	if err != nil || len(amd) != 4 {
		t.Fatalf("amd: %v, %v", amd, err)
	}
	list, err := parse("zen4, zen2,zen4")
	if err != nil || !slices.Equal(list, []string{"zen2", "zen4"}) {
		t.Fatalf("list: %v, %v (want canonical order, deduplicated)", list, err)
	}
	for _, bad := range []string{"zen5", "zen2,badarch", ""} {
		if _, err := parse(bad); err == nil {
			t.Errorf("-arch %q accepted", bad)
		}
	}
}

func TestExperimentsSmallRuns(t *testing.T) {
	// Every subcommand must complete with tiny parameters (smoke-level
	// CLI coverage; correctness is asserted by the package tests).
	if testing.Short() {
		t.Skip("CLI smoke runs")
	}
	for _, args := range [][]string{
		{"table1", "-arch", "zen2", "-trials", "2"},
		{"covert", "-arch", "zen2", "-bits", "64", "-runs", "1"},
		{"kaslr", "-arch", "zen2", "-runs", "2", "-jobs", "2"},
		{"mds", "-arch", "zen2", "-runs", "1", "-bytes", "64"},
		{"chain", "-arch", "zen2"},
	} {
		if err := runCommand(context.Background(), io.Discard, args[0], args[1:]); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestInterruptFlushesRunLog pins the interrupt contract: when the run
// context is cancelled mid-experiment (the SIGINT/SIGTERM path in
// main), the CLI exits 1 *and* the -metrics run log is still flushed
// and summary-terminated. Before runners took a context, an interrupt
// killed the process with whatever half-written log happened to be on
// disk.
func TestInterruptFlushesRunLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // "signal" arrives before the first sweep job
	args := []string{"-metrics", path, "kaslr", "-arch", "zen2", "-runs", "50"}
	if code := realMainCtx(ctx, args, io.Discard, io.Discard); code != 1 {
		t.Fatalf("realMainCtx(cancelled, %v) = %d, want 1", args, code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("run log not written: %v", err)
	}
	var last map[string]any
	lines := 0
	for _, line := range splitLines(data) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		last = rec
		lines++
	}
	if lines == 0 {
		t.Fatal("interrupted run left an empty run log")
	}
	if typ, _ := last["type"].(string); typ != "summary" {
		t.Errorf("last record type = %q, want summary (interrupted log must still be summary-terminated)", typ)
	}
}

// splitLines splits JSONL bytes into non-empty lines.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}
