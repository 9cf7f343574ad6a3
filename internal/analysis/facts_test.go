package analysis

import (
	"strings"
	"testing"
)

func TestCallGraphReachable(t *testing.T) {
	a := newPackageFacts()
	a.fact("m/a.Root").Callees = []string{"m/a.mid", "m/b.Leaf"}
	a.fact("m/a.mid").Callees = []string{"m/a.Root"} // cycle back
	a.fact("m/a.island").Callees = []string{"m/a.islandHelper"}
	b := newPackageFacts()
	b.fact("m/b.Leaf").Callees = nil

	g := BuildCallGraph(map[string]*PackageFacts{"m/a": a, "m/b": b})
	hot := g.Reachable([]string{"m/a.Root"})
	for _, want := range []string{"m/a.Root", "m/a.mid", "m/b.Leaf"} {
		if !hot[want] {
			t.Errorf("%s not reachable from Root", want)
		}
	}
	for _, cold := range []string{"m/a.island", "m/a.islandHelper"} {
		if hot[cold] {
			t.Errorf("%s reachable but nothing connects it to Root", cold)
		}
	}
}

func TestFactStoreRoundTrip(t *testing.T) {
	s := NewFactStore()
	if s.Package("m/a") != nil {
		t.Fatal("empty store returned facts")
	}
	pf := newPackageFacts()
	pf.fact("m/a.F").Durable = "calls os.File.Sync"
	s.Set("m/a", pf)
	got := s.Package("m/a")
	if got == nil || got.Funcs["m/a.F"].Durable != "calls os.File.Sync" {
		t.Fatalf("round trip lost the durable fact: %+v", got)
	}
}

// writePhantomShadowModule lays out a throwaway module NAMED phantom,
// so its package paths land inside the real analyzers' Applies scopes
// — the only way to exercise cross-package fact flow end to end
// without type-checking the actual repo in a unit test. store exports
// a Durable fact (its Persist wraps f.Sync); service imports store and
// discards Persist's error, which only errflow-with-facts can see.
func writePhantomShadowModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": "module phantom\n\ngo 1.21\n",
		"internal/store/store.go": `package store

import "os"

func Persist(f *os.File) error {
	return f.Sync()
}
`,
		"internal/service/service.go": `package service

import (
	"os"

	"phantom/internal/store"
)

func Checkpoint(f *os.File) {
	store.Persist(f)
}
`,
	})
}

func TestCrossPackageDurableFacts(t *testing.T) {
	inDir(t, writePhantomShadowModule(t))
	pkgs, err := Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(Suite(), pkgs, nil)
	var found bool
	for _, d := range diags {
		if d.Analyzer == "errflow" && strings.Contains(d.Message, "Persist discards its error") {
			found = true
			if !strings.Contains(d.Pos.Filename, "service") {
				t.Errorf("durable-discard finding landed in %s, want the service package", d.Pos.Filename)
			}
		}
	}
	if !found {
		t.Fatalf("no errflow finding for the cross-package durable discard; got: %v", diags)
	}
}
