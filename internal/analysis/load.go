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
	"os"
	"os/exec"
	"path/filepath"
)

// LoadedPackage is one type-checked package ready for analysis.
type LoadedPackage struct {
	Path string
	// Dir is the package directory on disk.
	Dir string
	// GoFiles are the parsed file paths exactly as handed to the parser
	// (dir-joined), so compiler escape output lines up with the FileSet.
	GoFiles []string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// listModule shells out to `go list -export` for every package of the
// module in dir, returning the module's packages (metadata only — nothing
// parsed yet) and the export data of every package in their dependency
// closure. It works offline against the local build cache, as `go vet`
// does. GoFiles excludes _test.go files: what is checked is what links
// into a binary.
func listModule(dir string) ([]listedPackage, map[string]string, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	return targets, exports, nil
}

// CheckPackage parses and type-checks one package's files with the given
// importer, returning the loaded package with full type information.
func CheckPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*LoadedPackage, error) {
	var files []*ast.File
	var names []string
	for _, gf := range goFiles {
		name := gf
		if dir != "" && !filepath.IsAbs(gf) {
			name = filepath.Join(dir, gf)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", name, err)
		}
		files = append(files, f)
		names = append(names, name)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	return &LoadedPackage{Path: importPath, Dir: dir, GoFiles: names, Files: files, Types: pkg, Info: info}, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// ModuleResult is a whole-module analysis outcome.
type ModuleResult struct {
	// Diags are the findings, position-sorted and deduplicated.
	Diags []Diagnostic
	// StaleAllows are //rbpc:allow names that suppressed nothing.
	StaleAllows []AllowAudit
}

// AnalyzeModule checks the module rooted at dir: it type-checks every
// package (dependencies come from compiler export data, not re-parsed),
// scans them all into one index, collects the compiler's escape verdicts
// per package, runs every analyzer over every package against that index,
// and reports each //rbpc:allow name that suppressed nothing. The index is
// complete before any analyzer runs, so every cross-package edge — an
// immutable type written from another package, a lock acquired three calls
// away — is visible.
func AnalyzeModule(dir string) (*ModuleResult, error) {
	targets, exports, err := listModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	// A single importcfg over the whole closure serves every compile.
	importCfg, err := WriteImportCfg(os.TempDir(), exports)
	if err != nil {
		return nil, err
	}
	defer os.Remove(importCfg)

	idx := NewIndex()
	units := make([]*Unit, len(targets))
	for i, t := range targets {
		lp, err := CheckPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		ScanPackage(fset, lp.Files, lp.Info, idx)
		esc, err := CollectEscapes(EscapeConfig{
			Dir: lp.Dir, ImportPath: lp.Path, GoFiles: lp.GoFiles, ImportCfg: importCfg,
		})
		if err != nil {
			return nil, err
		}
		units[i] = &Unit{Fset: fset, Files: lp.Files, Pkg: lp.Types, Info: lp.Info, Escapes: esc}
	}

	var diags []Diagnostic
	for _, u := range units {
		diags = append(diags, RunAnalyzers(All, u, idx)...)
	}
	res := &ModuleResult{Diags: SortDiags(diags)}
	for _, a := range idx.AuditAllows() {
		if !a.Used {
			res.StaleAllows = append(res.StaleAllows, a)
		}
	}
	return res, nil
}
