package analysis

import (
	"path/filepath"
	"testing"
)

// Each analyzer gets a flagging (bad) and a non-flagging (ok) fixture
// package. The bad fixtures annotate every expected diagnostic with a
// // want "regexp" comment; the ok fixtures must produce none.
func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

func TestDeterminismFixtures(t *testing.T) {
	RunFixture(t, Determinism, fixture("determinism", "bad"))
	RunFixture(t, Determinism, fixture("determinism", "ok"))
}

func TestMapOrderFixtures(t *testing.T) {
	RunFixture(t, MapOrder, fixture("maporder", "bad"))
	RunFixture(t, MapOrder, fixture("maporder", "ok"))
}

func TestNoPerturbFixtures(t *testing.T) {
	RunFixture(t, NoPerturb, fixture("noperturb", "bad"))
	RunFixture(t, NoPerturb, fixture("noperturb", "ok"))
}

func TestCtxFlowFixtures(t *testing.T) {
	RunFixture(t, CtxFlow, fixture("ctxflow", "bad"))
	RunFixture(t, CtxFlow, fixture("ctxflow", "ok"))
}

func TestLockCheckFixtures(t *testing.T) {
	RunFixture(t, LockCheck, fixture("lockcheck", "bad"))
	RunFixture(t, LockCheck, fixture("lockcheck", "ok"))
}

func TestErrFlowFixtures(t *testing.T) {
	RunFixture(t, ErrFlow, fixture("errflow", "bad"))
	RunFixture(t, ErrFlow, fixture("errflow", "ok"))
}

func TestGoLeakFixtures(t *testing.T) {
	RunFixture(t, GoLeak, fixture("goleak", "bad"))
	RunFixture(t, GoLeak, fixture("goleak", "ok"))
}

func TestHotAllocFixtures(t *testing.T) {
	RunFixture(t, HotAlloc, fixture("hotalloc", "bad"))
	RunFixture(t, HotAlloc, fixture("hotalloc", "ok"))
}

func TestUnusedIgnoreFixtures(t *testing.T) {
	RunFixture(t, UnusedIgnore, fixture("unusedignore", "bad"))
	RunFixture(t, UnusedIgnore, fixture("unusedignore", "ok"))
}

// TestCrossAnalyzerSilence pins that analyzers do not fire on each
// other's fixtures where the invariants do not overlap: the
// determinism fixtures never print, the noperturb fixtures never read
// clocks, and nothing outside the ctxflow fixtures minds contexts.
func TestCrossAnalyzerSilence(t *testing.T) {
	cases := []struct {
		a       *Analyzer
		fixture string
	}{
		{Determinism, fixture("noperturb", "bad")},
		{Determinism, fixture("ctxflow", "bad")},
		{Determinism, fixture("hotalloc", "bad")},
		{NoPerturb, fixture("determinism", "bad")},
		{NoPerturb, fixture("ctxflow", "bad")},
		{CtxFlow, fixture("determinism", "bad")},
		{CtxFlow, fixture("hotalloc", "bad")},
		{HotAlloc, fixture("determinism", "bad")},
		{HotAlloc, fixture("maporder", "bad")},
		{MapOrder, fixture("determinism", "bad")},
		{MapOrder, fixture("hotalloc", "bad")},
	}
	for _, c := range cases {
		diags, _, err := AnalyzeDir(c.a, c.fixture)
		if err != nil {
			t.Fatalf("%s on %s: %v", c.a.Name, c.fixture, err)
		}
		for _, d := range diags {
			t.Errorf("%s fired on %s: %s", c.a.Name, c.fixture, d)
		}
	}
}
