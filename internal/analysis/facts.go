package analysis

import (
	"go/types"
	"sort"
	"sync"
)

// facts.go is the cross-package half of the flow engine: the stdlib
// analogue of golang.org/x/tools/go/analysis facts. An analyzer
// running on package P exports facts about P's functions; analyzers
// running on packages that import P consume them. Facts flow strictly
// along the import DAG (Run analyzes packages in dependency order) and
// are keyed by types.Func.FullName, which is the same whether a
// package's types came from source or from export data.
//
// Two fact kinds exist today:
//
//   - Callees: the static call edges out of every function, extracted
//     for every package (callgraph.go). Run assembles them into
//     the whole-repo call graph that marks the hot set for hotalloc.
//   - Durable: set by errflow on functions whose error result reports
//     a durability outcome (an fsync/flush/flock, or transitively a
//     call to one). A caller in an importing package that discards
//     such an error is discarding a lost-write report.

// A FuncFact is the exported summary of one function.
type FuncFact struct {
	// Callees holds the FullNames of functions this one statically
	// calls (closure bodies attributed to their enclosing function),
	// sorted and deduplicated.
	Callees []string

	// Durable, when non-empty, is the human-readable reason this
	// function's error result must not be discarded on a durability
	// path ("calls (*os.File).Sync", ...).
	Durable string
}

// PackageFacts is everything one package exports, keyed by
// types.Func.FullName.
type PackageFacts struct {
	Funcs map[string]*FuncFact
}

func newPackageFacts() *PackageFacts {
	return &PackageFacts{Funcs: make(map[string]*FuncFact)}
}

// fact returns (creating if needed) the fact record for the named
// function.
func (pf *PackageFacts) fact(fullName string) *FuncFact {
	if pf.Funcs == nil {
		pf.Funcs = make(map[string]*FuncFact)
	}
	f := pf.Funcs[fullName]
	if f == nil {
		f = &FuncFact{}
		pf.Funcs[fullName] = f
	}
	return f
}

// names returns the fact keys in sorted order, for deterministic
// iteration (the suite obeys its own maporder rule).
func (pf *PackageFacts) names() []string {
	out := make([]string, 0, len(pf.Funcs))
	for name := range pf.Funcs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// A FactStore holds the facts of every package analyzed so far in one
// run. Run writes a package's facts exactly once, after its analysis
// completes and before any importer starts, so readers never observe a
// partially exported package.
type FactStore struct {
	mu   sync.Mutex
	pkgs map[string]*PackageFacts
}

func NewFactStore() *FactStore {
	return &FactStore{pkgs: make(map[string]*PackageFacts)}
}

// Set records pkgPath's exported facts.
func (s *FactStore) Set(pkgPath string, pf *PackageFacts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pkgs[pkgPath] = pf
}

// Package returns pkgPath's facts, or nil if the package has not been
// analyzed (not in the vetted set, or not yet reached — Run's
// dependency ordering makes the latter impossible for true imports).
func (s *FactStore) Package(pkgPath string) *PackageFacts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pkgs[pkgPath]
}

// ExportDurable records fn as a durability op in the current package's
// exported facts. No-op when the pass has no fact sink (isolated
// fixture runs on the raw rule).
func (p *Pass) ExportDurable(fn *types.Func, reason string) {
	if p.OwnFacts == nil {
		return
	}
	p.OwnFacts.fact(fn.FullName()).Durable = reason
}

// ImportedDurable reports whether fn (declared in another package)
// carries a Durable fact exported when that package was analyzed.
func (p *Pass) ImportedDurable(fn *types.Func) (string, bool) {
	if p.Facts == nil || fn.Pkg() == nil {
		return "", false
	}
	pf := p.Facts.Package(fn.Pkg().Path())
	if pf == nil {
		return "", false
	}
	f := pf.Funcs[fn.FullName()]
	if f == nil || f.Durable == "" {
		return "", false
	}
	return f.Durable, true
}
