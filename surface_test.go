package sbgt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPublicSurfaceNamesNoBackend keeps the one door shut: the concrete
// posterior backends are reachable from the public surface only as
// sbgt.Posterior, through OpenBackend. An exported declaration whose type,
// signature or value names something from internal/lattice, internal/sparse
// or internal/cluster would reopen a second way in. (Function bodies are
// not surface and are not inspected.)
func TestPublicSurfaceNamesNoBackend(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files++
		checkSurface(t, fset, file)
	}
	if files == 0 {
		t.Fatal("parsed no root-package files")
	}
}

func checkSurface(t *testing.T, fset *token.FileSet, file *ast.File) {
	// Local names under which this file imports a backend package.
	backend := map[string]bool{}
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		switch p {
		case "repro/internal/lattice", "repro/internal/sparse", "repro/internal/cluster":
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			backend[name] = true
		}
	}
	check := func(decl string, nodes ...ast.Node) {
		for _, n := range nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && backend[x.Name] {
						t.Errorf("%s: exported %s names %s.%s; backends are public only as sbgt.Posterior",
							fset.Position(sel.Pos()), decl, x.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// Signature and receiver only: the body is not surface.
			if d.Name.IsExported() {
				nodes := []ast.Node{d.Type}
				if d.Recv != nil {
					nodes = append(nodes, d.Recv)
				}
				check("func "+d.Name.Name, nodes...)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						check("type "+s.Name.Name, s.Type)
					}
				case *ast.ValueSpec:
					for i, name := range s.Names {
						if !name.IsExported() {
							continue
						}
						var nodes []ast.Node
						if s.Type != nil {
							nodes = append(nodes, s.Type)
						}
						if i < len(s.Values) {
							nodes = append(nodes, s.Values[i])
						}
						check("value "+name.Name, nodes...)
					}
				}
			}
		}
	}
}
