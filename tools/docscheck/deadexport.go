package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// keptExports are exports of internal packages that no non-test file
// references but that stay on purpose: test seams and oracles shared by
// other packages' tests. Each value names the tests that use it. An entry
// that names no such export fails the gate, so the list cannot go stale.
var keptExports = map[string]string{
	"faultinject.Hits":               "fault-site hit counts asserted by the root retry, piano-serve, detect and service chaos tests",
	"faultinject.ActHook":            "hook action armed by the root, piano-serve, detect and service robustness tests",
	"audio.SincMixCalls":             "call counter the audio and world composite tests use to prove one convolution per play",
	"audio.SparseFIRMixCalls":        "call counter the audio and world composite tests use to prove one convolution per play",
	"audio.MixFloatSincGain":         "per-tap reference mixer the audio and world composite tests compare MixSparseFIR against",
	"acoustic.Path.InvalidateKernel": "kernel-cache reset the acoustic and world composite tests call after mutating Taps",
	"dsp.Sine":                       "test tone generator of the dsp, acoustic and world tests",
	"dsp.TotalPower":                 "signal-power oracle of the dsp, acoustic and world tests",
	"dsp.PeakAbs":                    "peak-level oracle of the dsp, sigref and world tests",
	"energy.Battery.UsedJoules":      "battery drain the energy and core tests check against the ledger",
}

// stdlibMethods are method names the standard library calls through its
// own interfaces (error, fmt.Stringer, errors.Unwrap/Is), so a method with
// one of these names is used even when no file of the repo calls it.
var stdlibMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true, "Is": true}

// checkDeadExports is rule 5. Every exported identifier of an internal
// package — top-level names and methods, not struct fields — must be
// referenced by some non-test .go file under root, modules nested there
// included. A method also counts as used when a root-package type alias
// makes it public API or when the standard library calls it by name
// (stdlibMethods); a method reached only through a repo interface does
// not. kept names the deliberate test seams. Exports only their own
// package references are printed through note as candidates to unexport,
// without failing.
func checkDeadExports(root string, kept map[string]string, report, note func(string, ...any)) error {
	l, err := newLoader(root)
	if err != nil {
		return err
	}
	for _, dir := range l.dirs {
		if _, err := l.load(dir); err != nil {
			return err
		}
	}

	const ownUse, foreignUse = 1, 2
	uses := map[types.Object]int{}
	for _, p := range l.byDir {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if obj.Pkg() == p.types {
				uses[obj] |= ownUse
			} else {
				uses[obj] |= foreignUse
			}
		}
	}

	public := map[types.Object]bool{}
	if rootPkg := l.byDir[l.root]; rootPkg != nil {
		scope := rootPkg.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() || !tn.Exported() {
				continue
			}
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				for m := range named.Methods() {
					public[m] = true
				}
			}
		}
	}

	needed := map[string]bool{} // kept entries that name a dead export
	for _, dir := range l.dirs {
		p := l.byDir[dir]
		if dir == l.root || !isLibraryDir(l.rel(dir)) || p.types.Name() == "main" {
			continue
		}
		for _, obj := range exportedObjects(p.types) {
			key := p.types.Name() + "." + obj.Name()
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
				key = p.types.Name() + "." + namedOf(fn.Signature().Recv().Type()).Obj().Name() + "." + obj.Name()
				if public[obj] || stdlibMethods[obj.Name()] {
					continue
				}
			}
			pos := l.fset.Position(obj.Pos())
			where := fmt.Sprintf("%s:%d", l.rel(pos.Filename), pos.Line)
			switch {
			case uses[obj]&foreignUse != 0:
			case uses[obj]&ownUse != 0:
				note("%s: %s is used only inside its own package (unexport candidate)", where, key)
			case kept[key] != "":
				needed[key] = true
			default:
				report("%s: %s is referenced by no non-test file (delete it, or list it in keptExports with the tests that use it)", where, key)
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(kept)) {
		if !needed[key] {
			report("tools/docscheck: keptExports entry %s names no unreferenced export; drop it", key)
		}
	}
	return nil
}

// exportedObjects lists a package's exported top-level objects and the
// exported methods of its named types, in declaration order.
func exportedObjects(pkg *types.Package) []types.Object {
	var out []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, obj)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			for m := range named.Methods() {
				if m.Exported() {
					out = append(out, m)
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// module is one go.mod under root: its module path and directory.
type module struct{ path, dir string }

type loadedPkg struct {
	types *types.Package
	info  *types.Info
}

// loader type-checks every non-test package under root from source. Imports
// of a module found under root resolve to its directory; everything else is
// the standard library, checked from GOROOT.
type loader struct {
	root    string
	fset    *token.FileSet
	modules []module // longest path first
	dirs    []string // package directories, sorted
	byDir   map[string]*loadedPkg
	std     types.ImporterFrom
	stdDir  string
}

func newLoader(root string) (*loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		root:   root,
		fset:   fset,
		byDir:  map[string]*loadedPkg{},
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		stdDir: filepath.Join(build.Default.GOROOT, "src"),
	}
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		switch {
		case d.Name() == "go.mod":
			mod, err := modulePath(path)
			if err != nil {
				return err
			}
			l.modules = append(l.modules, module{mod, dir})
		case strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && !seen[dir]:
			seen[dir] = true
			l.dirs = append(l.dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(l.dirs)
	sort.Slice(l.modules, func(i, j int) bool { return len(l.modules[i].path) > len(l.modules[j].path) })
	return l, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for line := range strings.Lines(string(data)) {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (l *loader) rel(path string) string {
	r, err := filepath.Rel(l.root, path)
	if err != nil {
		return path
	}
	return r
}

// Import resolves a module-local path to its directory under root, and
// hands every other path to the standard-library source importer. The
// repo builds, so its imports have no cycles to guard against.
func (l *loader) Import(path string) (*types.Package, error) {
	for _, m := range l.modules {
		if path == m.path || strings.HasPrefix(path, m.path+"/") {
			p, err := l.load(filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(path, m.path))))
			if err != nil {
				return nil, err
			}
			return p.types, nil
		}
	}
	return l.std.ImportFrom(path, l.stdDir, 0)
}

func (l *loader) load(dir string) (*loadedPkg, error) {
	if p := l.byDir[dir]; p != nil {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	// The package path only names the package in messages; types are
	// identified by the one *types.Package each directory loads into.
	pkg, err := conf.Check(filepath.ToSlash(l.rel(dir)), l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{types: pkg, info: info}
	l.byDir[dir] = p
	return p, nil
}
