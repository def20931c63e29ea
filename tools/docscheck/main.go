// Command docscheck is the repo's documentation and API-surface gate (run
// via `make docs-check` and CI). Using only the standard library (the build
// image cannot install revive), it enforces the subset of revive's
// package-comments and exported rules this repo commits to, plus a
// dead-export rule:
//
//  1. every Go package in the module has a package comment;
//  2. every internal/* package and the root piano package keeps that
//     comment in a dedicated doc.go (one place to read a package's
//     responsibility, key types, and invariants);
//  3. exported top-level identifiers in library packages (root +
//     internal/*) have doc comments starting with the identifier's name;
//  4. the narrative docs README.md and ARCHITECTURE.md exist and are
//     non-trivial;
//  5. every exported identifier of an internal/* package, methods
//     included, is referenced by some non-test .go file in the repo,
//     nested modules (perfbench) included — see checkDeadExports for what
//     counts as a use and keptExports for the test seams kept on purpose.
//     Exports used only inside their own package are printed as unexport
//     candidates but do not fail the gate.
//
// Exit status is non-zero with one line per violation, so CI output reads
// like a compiler error list.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var violations []string
	report := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	checkNarrativeDocs(root, report)

	pkgDirs := map[string][]string{} // dir -> non-test .go files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		pkgDirs[dir] = append(pkgDirs[dir], path)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}

	dirs := make([]string, 0, len(pkgDirs))
	for dir := range pkgDirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		checkPackage(dir, pkgDirs[dir], report)
	}

	notes := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	if err := checkDeadExports(root, keptExports, report, notes); err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println(v)
		}
		fmt.Printf("docscheck: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

func checkNarrativeDocs(root string, report func(string, ...any)) {
	for _, name := range []string{"README.md", "ARCHITECTURE.md"} {
		info, err := os.Stat(filepath.Join(root, name))
		switch {
		case err != nil:
			report("%s: missing (the docs gate requires it)", name)
		case info.Size() < 512:
			report("%s: suspiciously small (%d bytes); write the real document", name, info.Size())
		}
	}
}

// isLibraryDir reports whether dir holds a package we hold to the exported-
// comment rule and the doc.go convention (root package + internal/*).
func isLibraryDir(dir string) bool {
	clean := filepath.ToSlash(filepath.Clean(dir))
	// Match "internal" as a whole path segment — a directory merely named
	// e.g. "myinternal" is not a library package.
	return clean == "." || strings.Contains("/"+clean+"/", "/internal/")
}

func checkPackage(dir string, files []string, report func(string, ...any)) {
	fset := token.NewFileSet()
	sort.Strings(files)

	var pkgName string
	hasPkgComment := false
	docGoHasComment := false
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			report("%s: parse error: %v", file, err)
			continue
		}
		pkgName = f.Name.Name
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			if hasPkgComment {
				report("%s: duplicate package comment (keep exactly one, in doc.go)", file)
			}
			hasPkgComment = true
			if filepath.Base(file) == "doc.go" {
				docGoHasComment = true
			}
		}
		if isLibraryDir(dir) && pkgName != "main" {
			checkExported(fset, f, report)
		}
	}
	if pkgName == "" {
		return
	}
	if !hasPkgComment {
		report("%s: package %s has no package comment", dir, pkgName)
		return
	}
	if isLibraryDir(dir) && pkgName != "main" && !docGoHasComment {
		report("%s: package %s must keep its package comment in doc.go", dir, pkgName)
	}
}

func checkExported(fset *token.FileSet, f *ast.File, report func(string, ...any)) {
	pos := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return fmt.Sprintf("%s:%d", p.Filename, p.Line)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report("%s: exported %s %s has no doc comment", pos(d), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						report("%s: exported type %s has no doc comment", pos(s), s.Name.Name)
					}
				case *ast.ValueSpec:
					// Grouped consts/vars inherit the group comment, same
					// as revive's exported rule in its default mode.
					if groupDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							report("%s: exported value %s has no doc comment", pos(s), name.Name)
						}
					}
				}
			}
		}
	}
}
