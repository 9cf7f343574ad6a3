package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadTypeChecksModulePackage loads a real module package through
// the go list + export-data pipeline and sanity-checks the result
// carries syntax, types, and resolved uses.
func TestLoadTypeChecksModulePackage(t *testing.T) {
	pkgs, err := Load([]string{"phantom/internal/gf2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.PkgPath != "phantom/internal/gf2" {
		t.Errorf("PkgPath = %q", p.PkgPath)
	}
	if len(p.Files) == 0 {
		t.Error("no files loaded")
	}
	if p.Types == nil || p.Types.Name() != "gf2" {
		t.Errorf("types package = %v", p.Types)
	}
	if len(p.Info.Uses) == 0 {
		t.Error("no uses resolved; analyzers would be blind")
	}
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s loaded; invariants only cover shipped code", name)
		}
	}
}

// TestLoadRunsSuiteOnIntraModuleImports loads a package that imports
// other module packages (sweep imports telemetry), whose types come
// from the export data `go list -export` names.
func TestLoadRunsSuiteOnIntraModuleImports(t *testing.T) {
	pkgs, err := Load([]string{"phantom/internal/sweep"})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(Suite(), pkgs, nil)
	for _, d := range diags {
		t.Errorf("clean package produced: %s", d)
	}
}

// writeModule lays out a throwaway module from relative path →
// content and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		writeFile(t, filepath.Join(root, rel), content)
	}
	return root
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendFile(t *testing.T, path, content string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, string(data)+content)
}

// inDir chdirs into dir for the duration of the test. Tests that use
// it share the process working directory, so none of them may run in
// parallel.
func inDir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLoadSeesDependencyEdit pins that a second load sees an edit to a
// dependency: the importer's types come from export data, and the go
// command must rebuild it rather than serve the stale copy. A new
// exported durable op in store, discarded by service, must type-check
// and surface as a cross-package errflow finding.
func TestLoadSeesDependencyEdit(t *testing.T) {
	root := writePhantomShadowModule(t)
	inDir(t, root)
	load := func() []Diagnostic {
		t.Helper()
		pkgs, err := Load([]string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		return Run(Suite(), pkgs, nil)
	}
	for _, d := range load() {
		if strings.Contains(d.Message, "Flush") {
			t.Fatalf("finding about Flush before it exists: %s", d)
		}
	}

	appendFile(t, filepath.Join(root, "internal/store/store.go"), `
func Flush(f *os.File) error {
	return f.Sync()
}
`)
	appendFile(t, filepath.Join(root, "internal/service/service.go"), `
func Drain(f *os.File) {
	store.Flush(f)
}
`)
	for _, d := range load() {
		if d.Analyzer == "errflow" && strings.Contains(d.Message, "Flush discards its error") {
			return
		}
	}
	t.Fatal("second load did not report the discarded error of the new store.Flush")
}

func TestLoadBadPattern(t *testing.T) {
	if _, err := Load([]string{"phantom/internal/definitely-not-here"}); err == nil {
		t.Fatal("expected an error for an unknown package")
	}
}

// writeLoadErrorModule lays out a module whose packages each trip one
// loader error path: a syntax error, an unresolvable import, and a
// directory with no Go files at all.
func writeLoadErrorModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod":                 "module loaderr.test\n\ngo 1.21\n",
		"syntax/syntax.go":       "package syntax\n\nfunc broken( {}\n",
		"badimport/badimport.go": "package badimport\n\nimport \"no/such/module/anywhere\"\n\nvar _ = anywhere.X\n",
		"empty/README.txt":       "no Go files here\n",
	})
}

// TestLoadUnparsableFile pins that a syntax error surfaces as a Load
// error naming the package, not a panic or a silently skipped file.
func TestLoadUnparsableFile(t *testing.T) {
	inDir(t, writeLoadErrorModule(t))
	_, err := Load([]string{"./syntax"})
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if !strings.Contains(err.Error(), "syntax") {
		t.Errorf("error does not name the package: %v", err)
	}
}

// TestLoadMissingImport pins the unresolvable-import path: an import
// nothing provides fails the load with an error naming the package
// rather than producing a half-typed package the analyzers would
// mis-judge.
func TestLoadMissingImport(t *testing.T) {
	inDir(t, writeLoadErrorModule(t))
	_, err := Load([]string{"./badimport"})
	if err == nil {
		t.Fatal("expected a load error")
	}
	if !strings.Contains(err.Error(), "badimport") {
		t.Errorf("error does not name the package: %v", err)
	}
}

// TestLoadEmptyPackage pins the no-Go-files path: `go list` rejects
// the directory, and the pattern error propagates.
func TestLoadEmptyPackage(t *testing.T) {
	inDir(t, writeLoadErrorModule(t))
	_, err := Load([]string{"./empty"})
	if err == nil {
		t.Fatal("expected an error for a directory without Go files")
	}
}

// TestParseDirRejectsMultiplePackages pins the fixture-harness loader
// error path: a testdata directory holding two package clauses is a
// broken fixture, not a choice.
func TestParseDirRejectsMultiplePackages(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"a.go": "package a\n",
		"b.go": "package b\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := parseDir(token.NewFileSet(), dir); err == nil {
		t.Fatal("expected an error for two packages in one fixture dir")
	}
}
