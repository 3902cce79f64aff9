package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported declarations in internal/ that may
// stay with no caller outside their own package's tests.
var testOnlyAllowed = map[string]bool{
	// The offline fsck: the only reader of the catalog section CRCs, which
	// loads skip on purpose so they never page the catalog in.
	"snapshot.VerifyFile": true,
	// errors.Is and errors.As call it through the Unwrap() []error
	// convention, so no file names it.
	"cluster.PartialError.Unwrap": true,
}

// sourceFile is one parsed .go file of the module tree.
type sourceFile struct {
	path, dir string
	test      bool
	f         *ast.File
}

// parseTree parses every .go file in the module tree (cmd/, examples/ and
// the perfbench module included; testdata and dot- or underscore-
// directories skipped, as the go tool skips them).
func parseTree(t *testing.T) (*token.FileSet, []sourceFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{path, filepath.Dir(path), strings.HasSuffix(path, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// topLevel calls fn for each top-level function, method, type, var and
// const f declares, with its pkg.Name label and its declaration node.
func topLevel(f *ast.File, fn func(id *ast.Ident, label string, node ast.Node)) {
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			label := gd.Name.Name
			if gd.Recv != nil {
				label = recvName(gd.Recv.List[0].Type) + "." + label
			}
			fn(gd.Name, f.Name.Name+"."+label, gd)
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					fn(spec.Name, f.Name.Name+"."+spec.Name.Name, spec)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						fn(id, f.Name.Name+"."+id.Name, spec)
					}
				}
			}
		}
	}
}

// TestNoTestOnlyExports keeps the program free of exported code that only
// its own package's tests reach. It checks each exported top-level
// function, method, type, var and const in internal/. A declaration passes
// when a non-test file names its identifier outside the declaration
// itself, when a _test.go file in another directory names it (a test
// helper that other packages' tests share), or when it is on
// testOnlyAllowed. Identifiers match by name, so the check can only
// overstate use. Anything else is reference code for its tests: move it
// into a _test.go file, or delete it with those tests.
func TestNoTestOnlyExports(t *testing.T) {
	type use struct {
		pos  token.Pos
		dir  string
		test bool
	}
	type decl struct {
		name, label string
		pos, end    token.Pos
		dir         string
	}
	fset, files := parseTree(t)
	uses := map[string][]use{}
	var decls []decl
	for _, sf := range files {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], use{id.Pos(), sf.dir, sf.test})
			}
			return true
		})
		if sf.test || !strings.HasPrefix(filepath.ToSlash(sf.path), "internal/") {
			continue
		}
		topLevel(sf.f, func(id *ast.Ident, label string, node ast.Node) {
			if id.IsExported() {
				decls = append(decls, decl{id.Name, label, node.Pos(), node.End(), sf.dir})
			}
		})
	}

	var flagged []string
	for _, d := range decls {
		if testOnlyAllowed[d.label] {
			continue
		}
		used := false
		for _, u := range uses[d.name] {
			if u.pos >= d.pos && u.pos < d.end {
				continue
			}
			if !u.test || u.dir != d.dir {
				used = true
				break
			}
		}
		if !used {
			p := fset.Position(d.pos)
			flagged = append(flagged, fmt.Sprintf("%s %s:%d", d.label, filepath.ToSlash(p.Filename), p.Line))
		}
	}
	sort.Strings(flagged)
	for _, s := range flagged {
		t.Errorf("%s: exported, but only its own package's tests name it", s)
	}
}

// TestNoUnnamedUnexported fails on each unexported top-level function,
// method, type, var and const in a non-test file that no file of its
// package (its directory, tests included) names outside the declaration
// itself: code nothing can reach. init, main and blank declarations are
// exempt. Identifiers match by name, so the check can only overstate use.
func TestNoUnnamedUnexported(t *testing.T) {
	fset, files := parseTree(t)
	type key struct{ dir, name string }
	uses := map[key][]token.Pos{}
	for _, sf := range files {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				k := key{sf.dir, id.Name}
				uses[k] = append(uses[k], id.Pos())
			}
			return true
		})
	}
	var flagged []string
	for _, sf := range files {
		if sf.test {
			continue
		}
		topLevel(sf.f, func(id *ast.Ident, label string, node ast.Node) {
			if id.IsExported() || id.Name == "_" || id.Name == "init" || id.Name == "main" {
				return
			}
			for _, pos := range uses[key{sf.dir, id.Name}] {
				if pos < node.Pos() || pos >= node.End() {
					return
				}
			}
			p := fset.Position(node.Pos())
			flagged = append(flagged, fmt.Sprintf("%s %s:%d", label, filepath.ToSlash(p.Filename), p.Line))
		})
	}
	sort.Strings(flagged)
	for _, s := range flagged {
		t.Errorf("%s: unexported, and nothing in its package names it", s)
	}
}

// recvName returns the type name of a method receiver, with any pointer
// and type parameters stripped.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
