// Command phantom-vet runs the repo's invariant analyzers — the
// determinism, parity, and no-perturbation rules the runtime parity
// tests pin — over Go packages and reports violations at their source
// positions. It is the fifth phantom binary and the static half of
// `make check`: the parity tests prove the invariants held on this
// run, phantom-vet proves nobody wrote code that could break them on
// another.
//
// Usage:
//
//	phantom-vet [-run names] [-list] [-v] [-fixture] packages...
//
// Packages use `go list` pattern syntax (./..., phantom/internal/...,
// or plain directories). -run restricts the suite to a comma-separated
// subset of analyzers; -list describes every analyzer and exits.
// -fixture treats each argument as a single fixture package directory
// and runs the raw rules on it, ignoring Applies scopes — the CLI face
// of the in-tree fixture harness, used by CI to pin seeded violations.
//
// Every run loads the named packages (imports come from the export
// data the go command keeps in its build cache) and analyzes them
// serially in dependency order. -v reports the package count, load and
// analyze wall time, and per-analyzer wall time on stderr.
//
// Exit codes follow the convention shared by every phantom binary:
// 0 on success (no findings), 1 on runtime errors or findings, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"phantom/internal/analysis"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the tool and returns the process exit code. Findings
// go to stdout (they are the program's output); errors go to stderr.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phantom-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	run := fs.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	fixture := fs.Bool("fixture", false, "treat arguments as fixture package directories and run the raw rules (ignores Applies scopes)")
	verbose := fs.Bool("v", false, "report package count and load, analyze and per-analyzer wall time on stderr")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: phantom-vet [-run names] [-list] [-v] [-fixture] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite, err := selectAnalyzers(*run)
	if err != nil {
		fmt.Fprintf(stderr, "phantom-vet: %v\n", err)
		return 2
	}
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "phantom-vet: no packages named (try ./...)")
		fs.Usage()
		return 2
	}
	if *fixture {
		// Fixture mode exercises the raw rules the way the test harness
		// does: Applies scopes are ignored (testdata package paths never
		// fall inside the real tree's scopes). CI uses this to pin each
		// analyzer's seeded bad fixture to exit code 1.
		return runFixtures(suite, fs.Args(), stdout, stderr)
	}
	start := time.Now()
	pkgs, err := analysis.Load(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "phantom-vet: %v\n", err)
		return 1
	}
	loaded := time.Now()
	perAnalyzer := make(map[string]time.Duration)
	diags := analysis.Run(suite, pkgs, func(analyzer string, d time.Duration) {
		perAnalyzer[analyzer] += d
	})
	if *verbose {
		fmt.Fprintf(stderr, "phantom-vet: %d package(s), load %v, analyze %v\n",
			len(pkgs), loaded.Sub(start).Round(time.Millisecond), time.Since(loaded).Round(time.Millisecond))
		for _, a := range suite {
			if d, ok := perAnalyzer[a.Name]; ok {
				fmt.Fprintf(stderr, "  analyzer %-12s %v\n", a.Name, d.Round(time.Millisecond))
			}
		}
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "phantom-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runFixtures analyzes each directory as a single fixture package with
// every selected analyzer's raw rule, exactly as the in-tree fixture
// tests do. Diagnostics print to stdout; the exit code follows the
// usual convention (0 clean, 1 findings or errors).
func runFixtures(suite []*analysis.Analyzer, dirs []string, stdout, stderr io.Writer) int {
	var total int
	for _, dir := range dirs {
		for _, a := range suite {
			diags, _, err := analysis.AnalyzeDir(a, dir)
			if err != nil {
				fmt.Fprintf(stderr, "phantom-vet: %s: %v\n", dir, err)
				return 1
			}
			for _, d := range diags {
				fmt.Fprintln(stdout, d)
			}
			total += len(diags)
		}
	}
	if total > 0 {
		fmt.Fprintf(stderr, "phantom-vet: %d finding(s)\n", total)
		return 1
	}
	return 0
}

// selectAnalyzers resolves a -run list against the suite. An empty
// spec selects everything; an unknown name is a usage error, because a
// typo that silently runs zero analyzers would green-light anything.
func selectAnalyzers(spec string) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return analysis.Suite(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := analysis.ByName(name)
		if a == nil {
			known := make([]string, 0, len(analysis.Suite()))
			for _, s := range analysis.Suite() {
				known = append(known, s.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return out, nil
}
