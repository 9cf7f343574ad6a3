package service

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"phantom/internal/pipeline"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenRequest is the pinned request an experiment's golden renders:
// its default seed and first default arch, with every size parameter it
// consumes shrunk to a tiny value so the whole catalog runs in seconds.
// Normalize drops the sizes an experiment does not consume, so the
// request is derived from the catalog alone.
func goldenRequest(t *testing.T, name string) Request {
	t.Helper()
	def := mustNormalize(t, Request{Experiment: name})
	req := Request{Experiment: name, Trials: 2, Bits: 16, Runs: 1, Bytes: 64}
	if len(def.Archs) > 0 {
		req.Archs = def.Archs[:1]
	}
	return mustNormalize(t, req)
}

// TestExecuteGolden pins the text rendering of every catalog entry,
// byte for byte, against testdata/execute/<name>.golden. Every
// experiment must have a golden: adding one to the catalog without
// recording its output fails here. Refresh intentionally with:
//
//	go test -run TestExecuteGolden -update ./internal/service
func TestExecuteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, name := range Experiments() {
		t.Run(name, func(t *testing.T) { checkExecuteGolden(t, name) })
	}
}

// TestExecuteGoldenReferencePath renders the goldens of the entries the
// phantom package's predecode parity tests do not cover a second time,
// with every machine on the byte-at-a-time reference fetch path. The
// predecode cache charges no cycles, so not a byte may change. (The
// report is left out: its sections are covered by those parity tests
// and these entries.)
func TestExecuteGoldenReferencePath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	if *updateGolden {
		t.Skip("goldens are recorded on the fast path only")
	}
	pipeline.SetReferenceFetch(true)
	defer pipeline.SetReferenceFetch(false)
	for _, name := range []string{"fig6", "fig7", "physmap", "physaddr", "mitigations", "sls", "chain"} {
		t.Run(name, func(t *testing.T) { checkExecuteGolden(t, name) })
	}
}

// checkExecuteGolden renders name's golden request and compares it with
// testdata/execute/<name>.golden.
func checkExecuteGolden(t *testing.T, name string) {
	t.Helper()
	var buf bytes.Buffer
	if err := Execute(context.Background(), &buf, goldenRequest(t, name), 1); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "execute", name+".golden"), buf.Bytes())
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
