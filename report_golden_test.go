package phantom

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestReportSectionGolden pins one seed-pinned GenerateReport section
// against a committed golden file. The covert-channel section exercises
// sweeps, the accuracy/rate formatting, and the paper-reference columns;
// with a fixed seed its text is fully deterministic, so any diff is a
// real change to either the simulation or the report formatting.
// Refresh intentionally with:
//
//	go test -run TestReportSectionGolden -update .
func TestReportSectionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a report section")
	}
	var buf bytes.Buffer
	opts := ReportOptions{Options: Options{Seed: 7, Runs: 2, Bits: 128}}
	if err := GenerateReportSection(&buf, "Table 2 — covert channels", opts); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "report_covert_seed7.golden"), buf.Bytes())
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

// TestReportSectionTitles keeps GenerateReportSection's title lookup in
// sync with the generated document.
func TestReportSectionTitles(t *testing.T) {
	titles := ReportSectionTitles()
	if len(titles) != 7 {
		t.Fatalf("got %d sections: %v", len(titles), titles)
	}
	if err := GenerateReportSection(&bytes.Buffer{}, "no such section", ReportOptions{}); err == nil {
		t.Fatal("unknown section title accepted")
	}
}
