package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// listedPackage is the subset of `go list -deps -export -json` output
// the loader needs. Export names the compiled export-data file the go
// command keeps in its build cache; DepOnly marks packages listed only
// because something in the vetted set imports them.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// Load expands the given `go list` patterns (./..., package paths, or
// directories) and returns each matched package parsed and
// type-checked from source. Test files are excluded: the invariants
// phantom-vet enforces are about what ships in the simulator, and
// tests legitimately use time.Now, os.Stdout capture, etc.
//
// Imports resolve from the export data the go command compiled (or
// found in its build cache) while listing, so a load costs one `go
// list` plus one type-check per vetted package.
func Load(patterns []string) ([]*Package, error) {
	listed, err := goList("", patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, listed)
	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list -deps -export -json` in dir (the current
// directory when empty) — the one part of package loading not worth
// reimplementing, since build constraints, module resolution, pattern
// syntax and compiling export data all live in the go command. The
// output lists every dependency before its importers.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=Dir,ImportPath,GoFiles,Export,DepOnly", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := bytes.TrimSpace(stderr.Bytes())
		if len(msg) == 0 {
			msg = []byte(err.Error())
		}
		return nil, fmt.Errorf("go list %v: %s", patterns, msg)
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// exportImporter resolves imports from the export data files of the
// listed packages. The importer caches each package it reads, so one
// importer serves a whole load.
func exportImporter(fset *token.FileSet, listed []listedPackage) types.Importer {
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// checkPackage parses and type-checks one package's files.
func checkPackage(fset *token.FileSet, imp types.Importer, pkgPath, dir string, goFiles []string) (*Package, error) {
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pkgPath, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: type checking: %v", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// parseDir parses every non-test .go file of the single package in
// dir, for the fixture harness (which bypasses `go list` for the
// fixture itself because testdata is invisible to ./... patterns on
// purpose).
func parseDir(fset *token.FileSet, dir string) (name string, files []*ast.File, err error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !isTestFile(fi.Name())
	}, parser.ParseComments)
	if err != nil {
		return "", nil, err
	}
	if len(pkgs) != 1 {
		return "", nil, fmt.Errorf("%s: want exactly one package, got %d", dir, len(pkgs))
	}
	var astPkg *ast.Package
	for n, p := range pkgs {
		name, astPkg = n, p // single entry, checked above
	}
	fileNames := make([]string, 0, len(astPkg.Files))
	for fn := range astPkg.Files {
		fileNames = append(fileNames, fn)
	}
	sort.Strings(fileNames)
	for _, fn := range fileNames {
		files = append(files, astPkg.Files[fn])
	}
	return name, files, nil
}

func isTestFile(name string) bool {
	return len(name) > len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
