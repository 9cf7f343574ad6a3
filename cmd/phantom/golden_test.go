package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"phantom/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenArgs is the pinned command line of an experiment's -json golden:
// the registry's default seed and first default arch, with every size
// flag the experiment has shrunk to a tiny value (the same request the
// internal/service text goldens render).
func goldenArgs(t *testing.T, e service.Experiment) []string {
	t.Helper()
	req := service.Request{Experiment: e.Name, Trials: 2, Bits: 16, Runs: 1, Bytes: 64}
	if e.Archs != nil {
		def, err := service.Request{Experiment: e.Name}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		req.Archs = def.Archs[:1]
	}
	req, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{e.Name, "-json", "-seed", fmt.Sprint(req.Seed)}
	if len(req.Archs) > 0 {
		args = append(args, "-arch", strings.Join(req.Archs, ","))
	}
	for _, p := range e.Params {
		if v, ok := p.Field(&req).(*int); ok {
			args = append(args, "-"+p.Name, fmt.Sprint(*v))
		}
	}
	return args
}

// TestJSONGolden pins `phantom <experiment> -json` for every registry
// entry that offers -json against testdata/json/<name>.golden. Refresh
// intentionally with:
//
//	go test -run TestJSONGolden -update ./cmd/phantom
func TestJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, e := range service.Registry() {
		if !e.JSON {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			var out, errs bytes.Buffer
			args := goldenArgs(t, e)
			if code := realMainCtx(context.Background(), args, &out, &errs); code != 0 {
				t.Fatalf("phantom %v exited %d: %s", args, code, &errs)
			}
			checkGolden(t, filepath.Join("testdata", "json", e.Name+".golden"), out.Bytes())
		})
	}
}

// TestFlagsGolden pins every subcommand's flag names and defaults
// against testdata/flags.golden, so a registry edit cannot silently
// rename or re-default a flag.
func TestFlagsGolden(t *testing.T) {
	names := []string{"all", "search"}
	for _, e := range service.Registry() {
		names = append(names, e.Name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		cmd, _ := lookupCommand(name)
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		cmd(fs)
		fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&b, "%s -%s=%s\n", name, f.Name, f.DefValue) })
	}
	checkGolden(t, filepath.Join("testdata", "flags.golden"), []byte(b.String()))
}

// checkGolden compares got with the golden file at path, rewriting it
// first under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s (rerun with -update if intentional)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
