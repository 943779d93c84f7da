package repro_test

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
	"slices"
	"strings"
	"testing"
)

// reachAllowed lists the internal/ declarations that no reproduction root
// reaches but that stay, each with its reason. Keys are the short names the
// test prints: "pkg.Name" or "pkg.Type.Method". An allowed declaration
// counts as a root for what it uses. An entry that a root reaches, or that
// names no declaration, fails the test as stale.
var reachAllowed = map[string]string{
	"analysis/atest.Run":         "harness of the reprolint analyzer tests",
	"analysis/atest.Diagnostics": "harness of the reprolint analyzer tests",
	"analysis/atest.SetFlags":    "harness of the reprolint analyzer tests",

	"extrae.Monitor.Free":        "the paper's free interception: the monitor retires the data object (HPCG never frees)",
	"extrae.Monitor.Realloc":     "the paper's realloc interception: the monitor re-registers the moved data object",
	"prog.AddressSpace.Free":     "allocator half of the paper's free interception (fires OnFree)",
	"prog.AddressSpace.Realloc":  "allocator half of the paper's realloc interception (fires OnFree and OnAlloc)",
	"prog.Binary.AddStaticData":  "the paper's static data objects, which objects.ScanBinary registers (HPCG declares none)",
	"numa.Placement.Bind":        "per-object bind policy; bind ranges are part of the BSCK checkpoint layout",
	"numa.Placement.Lookup":      "reads a page's home without placing it; the placement tests' oracle",
	"numa.Placement.HomeNode":    "resolves and places a page outside a router; the placement tests' oracle",
	"memhier.Hierarchy.Contains": "test oracle: line residency without touching replacement state",
	"workloads.SpMV.Value":       "test oracle: the computed y[i]",
	"workloads.SpMV.Expected":    "test oracle: the closed-form stencil row sum",
	"workloads.MatMul.Value":     "test oracle: the computed C[i][j]",

	"faultinject.Enable":      "arms a fault point for the robustness suites; production code only calls Hit",
	"faultinject.Reset":       "disarms every fault point after a robustness test",
	"faultinject.Hits":        "counts passes over a fault point in the robustness suites",
	"faultinject.ErrInjected": "the default injected error the robustness suites match",
}

// TestEveryExportReached enforces the reach rule (DESIGN.md §1): every
// declaration in a non-test file under internal/ is reachable from a
// reproduction root or from an entry of reachAllowed. The roots are the
// cmd/* and examples/* mains, all of perfbench/ with its tests, the root
// figure benches and the scenario and Paraver golden tests.
//
// The checker is built from go list and go/types alone. Every package of
// this module, and of perfbench/, is type-checked from source; everything
// else is imported from the export data go list builds. The graph links each
// top-level declaration to the package-level objects and methods it names.
// A method is also reached when a reached type implements an interface that
// declares it, since a call through the interface names no method.
func TestEveryExportReached(t *testing.T) {
	g := loadReachGraph(t)

	fromRoots := g.walk(nil)
	var problems []string
	var allowed []string
	for key, reason := range reachAllowed {
		switch {
		case strings.TrimSpace(reason) == "":
			problems = append(problems, fmt.Sprintf("allowlist entry %s has no reason", key))
		case g.decls[key] == nil || !g.decls[key].internal:
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s: no such internal/ declaration", key))
		case fromRoots[key]:
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s: a root reaches it", key))
		}
		allowed = append(allowed, key)
	}
	for _, d := range g.unreached(g.walk(allowed)) {
		problems = append(problems, fmt.Sprintf("%s: %s is reached by no command, example, perfbench, figure bench or golden test", d.pos, d.key))
	}
	slices.Sort(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// listedPackage is the part of go list's JSON output the checker reads.
type listedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path string }
	Error        *struct{ Err string }
}

func goList(t *testing.T, dir string) []*listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,Name,Dir,Export,ForTest,GoFiles,TestGoFiles,XTestGoFiles,Module,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		if p.Error != nil {
			t.Fatalf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		// Test variants ("p [p.test]") and test mains are rebuilt from
		// the plain records, which name every test file.
		if p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// reachDecl is one top-level declaration: a node of the reference graph.
type reachDecl struct {
	key      string
	pos      string
	internal bool // declared in a non-test file under internal/
	refs     []string
	named    *types.Named // the declared type, whose interface methods it reaches
}

type reachGraph struct {
	decls      map[string]*reachDecl
	roots      []string
	interfaces []*types.Interface
	byName     map[string]bool // every method name of those interfaces
}

// sourceImporter hands out the packages checked from source and falls back
// to compiler export data for everything else.
type sourceImporter struct {
	src map[string]*types.Package
	gc  types.Importer
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.src[path]; ok {
		return p, nil
	}
	return im.gc.Import(path)
}

func loadReachGraph(t *testing.T) *reachGraph {
	t.Helper()
	perfDir, err := filepath.Abs("perfbench")
	if err != nil {
		t.Fatal(err)
	}
	modPkgs := goList(t, ".")
	perfPkgs := goList(t, perfDir)

	exports := map[string]string{}
	for _, p := range append(slices.Clone(modPkgs), perfPkgs...) {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	im := &sourceImporter{
		src: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(f)
		}),
	}
	g := &reachGraph{decls: map[string]*reachDecl{}, byName: map[string]bool{}}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}

	// check type-checks files as package path and adds their declarations
	// to the graph. Declarations in root files, and the init functions and
	// package-level initialisers of every checked package, become roots.
	check := func(path, dir string, files []string, isRoot func(file string) bool) *types.Package {
		var parsed []*ast.File
		for _, name := range files {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed = append(parsed, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(path, fset, parsed, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		for _, tv := range info.Types {
			g.addInterface(tv.Type)
		}
		for i, f := range parsed {
			rel, _ := filepath.Rel(wd, filepath.Join(dir, files[i]))
			root := isRoot(files[i])
			internal := strings.HasPrefix(filepath.ToSlash(rel), "internal/") && !strings.HasSuffix(files[i], "_test.go")
			for _, decl := range f.Decls {
				g.addDecl(fset, info, decl, rel, root, internal)
			}
		}
		return pkg
	}
	// The packages whose test files hold roots, and which of their files
	// are roots.
	all := func(string) bool { return true }
	goldens := func(file string) bool { return file == "golden_test.go" }
	rootFiles := map[string]func(string) bool{
		"repro":                   all,
		"repro/perfbench":         all,
		"repro/internal/scenario": goldens,
		"repro/internal/paraver":  goldens,
	}

	var testRoots []*listedPackage
	for _, p := range modPkgs {
		if p.Module == nil || p.Module.Path != "repro" {
			continue
		}
		if len(p.GoFiles) > 0 {
			im.src[p.ImportPath] = check(p.ImportPath, p.Dir, p.GoFiles, func(string) bool { return false })
		}
		if p.Name == "main" {
			g.roots = append(g.roots, p.ImportPath+".main")
		}
		if rootFiles[p.ImportPath] != nil {
			testRoots = append(testRoots, p)
		}
	}
	for _, p := range perfPkgs {
		if p.ImportPath == "repro/perfbench" {
			testRoots = append(testRoots, p)
		}
	}
	for _, p := range testRoots {
		isRoot := rootFiles[p.ImportPath]
		plain := im.src[p.ImportPath]
		if files := append(slices.Clone(p.GoFiles), p.TestGoFiles...); len(files) > 0 && (plain == nil || len(p.TestGoFiles) > 0) {
			// The in-package test files see the package's own
			// declarations; its external tests import this variant.
			im.src[p.ImportPath] = check(p.ImportPath, p.Dir, files, isRoot)
		}
		if len(p.XTestGoFiles) > 0 {
			check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles, isRoot)
		}
		if plain != nil {
			im.src[p.ImportPath] = plain
		}
	}

	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if im.src[p.Path()] != p {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					g.addInterface(tn.Type())
				}
			}
		}
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, p := range im.src {
		visit(p)
	}
	g.addInterface(types.Universe.Lookup("error").Type())
	return g
}

func (g *reachGraph) addInterface(typ types.Type) {
	if typ == nil {
		return
	}
	iface, ok := typ.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		g.byName[iface.Method(i).Name()] = true
	}
	g.interfaces = append(g.interfaces, iface)
}

// reachKey names a package-level object or a concrete method the way the
// test prints it, or returns "" for anything else (locals, fields,
// interface methods, objects of other modules).
func reachKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	var short string
	switch {
	case strings.HasPrefix(path, "repro/internal/"):
		short = strings.TrimPrefix(path, "repro/internal/")
	case path == "repro" || path == "repro_test" || strings.HasPrefix(path, "repro/"):
		short = path
	default:
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok || types.IsInterface(named) {
				return ""
			}
			return short + "." + named.Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return short + "." + obj.Name()
}

func (g *reachGraph) addDecl(fset *token.FileSet, info *types.Info, decl ast.Decl, file string, root, internal bool) {
	refsOf := func(n ast.Node) []string {
		var refs []string
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := reachKey(info.Uses[id]); k != "" {
					refs = append(refs, k)
				}
			}
			return true
		})
		return refs
	}
	add := func(id *ast.Ident, n ast.Node, refs []string) {
		obj := info.Defs[id]
		key := reachKey(obj)
		// init functions and blank identifiers are not in the package
		// scope: they run whenever their package is linked.
		if key == "" || id.Name == "init" || id.Name == "_" {
			g.roots = append(g.roots, refs...)
			return
		}
		d := g.decls[key]
		if d == nil {
			d = &reachDecl{key: key}
			g.decls[key] = d
		}
		d.refs = append(d.refs, refs...)
		if internal {
			p := fset.Position(id.Pos())
			d.pos = fmt.Sprintf("%s:%d", file, p.Line)
			d.internal = true
		}
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				d.named = named
			}
		}
		if root {
			g.roots = append(g.roots, key)
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		add(d.Name, d, refsOf(d))
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(s.Name, s, refsOf(s))
			case *ast.ValueSpec:
				// A package-level initialiser runs when its package
				// is linked, whether or not anything names the var.
				var init []string
				for _, v := range s.Values {
					init = append(init, refsOf(v)...)
				}
				if d.Tok == token.VAR {
					g.roots = append(g.roots, init...)
				}
				var typ []string
				if s.Type != nil {
					typ = refsOf(s.Type)
				}
				for _, name := range s.Names {
					add(name, s, append(typ, init...))
				}
			}
		}
	}
}

// walk returns every key reachable from the roots and the extra keys.
func (g *reachGraph) walk(extra []string) map[string]bool {
	reached := map[string]bool{}
	queue := append(slices.Clone(g.roots), extra...)
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[k] {
			continue
		}
		reached[k] = true
		if d := g.decls[k]; d != nil {
			queue = append(queue, d.refs...)
			if d.named != nil {
				queue = append(queue, g.interfaceMethods(d.named)...)
			}
		}
	}
	return reached
}

// calledByName holds the methods the standard library calls through
// interfaces it does not export: errors.Is, errors.As and errors.Unwrap.
var calledByName = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// interfaceMethods returns the methods a reached type contributes to the
// interfaces it implements. types.Implements cannot take an uninstantiated
// generic type, so a generic type's methods match interfaces by name.
func (g *reachGraph) interfaceMethods(named *types.Named) []string {
	generic := named.TypeParams().Len() > 0
	var keys []string
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); calledByName[m.Name()] || generic && g.byName[m.Name()] {
			keys = append(keys, reachKey(m))
		}
	}
	if generic {
		return keys
	}
	ptr := types.NewPointer(named)
	for _, iface := range g.interfaces {
		if !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			obj, _, _ := types.LookupFieldOrMethod(ptr, false, iface.Method(i).Pkg(), iface.Method(i).Name())
			if k := reachKey(obj); k != "" {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// unreached lists the internal declarations the reached set misses, leaving
// out the methods of types that are themselves unreached.
func (g *reachGraph) unreached(reached map[string]bool) []*reachDecl {
	var out []*reachDecl
	for key, d := range g.decls {
		if !d.internal || reached[key] {
			continue
		}
		if parts := strings.Split(key, "."); len(parts) == 3 && !reached[parts[0]+"."+parts[1]] {
			continue
		}
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b *reachDecl) int { return strings.Compare(a.pos, b.pos) })
	return out
}
