package nesc

// The option census. catalogue_test.go holds every counter to one
// declaration; this holds every option to one caller: a field of a
// configuration struct that nothing outside its declaring file ever sets is
// not an option — it is a constant with a dead branch behind it, and the
// configurations it nominally adds are ones no test or benchmark runs.
//
// The check is syntactic (go/parser only). A field counts as set when a file
// other than the one declaring its struct — tests, cmd/ and benchmarks/
// included — names it as a key of a composite literal of that struct's type,
// or assigns to it (x.F = v, x.F++, x.A.F = v, which also sets A). Literals
// are matched on their type. An assignment is matched on
// the type of what it assigns through where that can be read off the source:
// a parameter, a receiver, a variable made from a literal, a constructor or
// another such variable, and any field chain from there (cfg.Core.
// AdmitInflight sets core.Params.AdmitInflight and says nothing about
// nesc.Config.AdmitInflight; cfg.MaxBlocksPerReq = 4 inside NewNescDriver
// says nothing about the virtio driver's field of that name). Where it cannot
// — x := d.ringConfig(); x.Entries = n — the assignment counts for every
// checked struct with a field of that name, so a name shared between two
// checked structs can still hide an unset field behind a set one.
//
// Two kinds of field are counted but not checked. Calibrated costs are data,
// not options: fields of type sim.Time (time.Duration in the public API) or
// float64 are the reproduction's Table I. And a field whose type is another
// checked struct is that struct handed over whole: its fields are checked
// where they are declared.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// censusStructs are the configuration structs held to the rule, as
// "<import path>.<type>".
var censusStructs = []string{
	"nesc.Config",
	"nesc.MirrorConfig",
	"nesc/internal/bench.Config",
	"nesc/internal/core.Params",
	"nesc/internal/hypervisor.Params",
	"nesc/internal/hypervisor.VMConfig",
	"nesc/internal/hypervisor.ScrubConfig",
	"nesc/internal/guest.RingConfig",
	"nesc/internal/guest.Params",
	"nesc/internal/guest.NescDriverConfig",
	"nesc/internal/guest.VirtioDriverConfig",
	"nesc/internal/guest.EmulDriverConfig",
	"nesc/internal/fabric.Config",
	"nesc/internal/cas.Params",
	"nesc/internal/extfs.Params",
}

// censusDecl is one struct declaration: where it is, its exported fields in
// order, and the named type of every field ("" when it has none).
type censusDecl struct {
	file     string
	exported []string
	typ      map[string]string
}

// censusImportPath maps a repo directory to its import path.
func censusImportPath(dir string) string {
	if dir == "." {
		return "nesc"
	}
	return "nesc/" + filepath.ToSlash(dir)
}

// censusTypeName renders a type expression of file f in package pkg: a named
// type or a pointer to one as "<import path>.<type>", anything else as "".
func censusTypeName(f *ast.File, pkg string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return censusTypeName(f, pkg, e.X)
	case *ast.Ident:
		return pkg + "." + e.Name
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		if !ok {
			return ""
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == x.Name {
				return path + "." + e.Sel.Name
			}
		}
	}
	return ""
}

func TestEveryOptionHasASetter(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // build caches
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[path] = f
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1: every struct the repo declares, and what each package-level
	// function returns.
	structs := map[string]*censusDecl{}
	returns := map[string]string{}
	for path, f := range files {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "benchmarks") {
			continue // the nested benchmark module only ever sets
		}
		pkg := censusImportPath(filepath.Dir(path))
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Type.Results != nil && len(d.Type.Results.List) == 1 {
					returns[pkg+"."+d.Name.Name] = censusTypeName(f, pkg, d.Type.Results.List[0].Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					decl := &censusDecl{file: path, typ: map[string]string{}}
					for _, fl := range st.Fields.List {
						for _, name := range fl.Names {
							decl.typ[name.Name] = censusTypeName(f, pkg, fl.Type)
							if name.IsExported() {
								decl.exported = append(decl.exported, name.Name)
							}
						}
					}
					structs[pkg+"."+ts.Name.Name] = decl
				}
			}
		}
	}
	checked := map[string]bool{}
	for _, s := range censusStructs {
		if structs[s] == nil {
			t.Fatalf("checked struct %s is not declared anywhere", s)
		}
		checked[s] = true
	}

	// Pass 2: the setters. set[struct][field] holds one witness.
	set := map[string]map[string]string{}
	for s := range checked {
		set[s] = map[string]string{}
	}
	mark := func(s, field, path string, pos token.Pos) {
		if checked[s] && path != structs[s].file && set[s][field] == "" {
			set[s][field] = fset.Position(pos).String()
		}
	}
	for path, f := range files {
		pkg := censusImportPath(filepath.Dir(path))
		// vars maps the variables whose type the source states to that type.
		// It is per file and ignores scopes, so a name bound twice keeps its
		// later type for the rest of the file. That is an approximation, not a
		// proof: the repo names its config variables after what they hold
		// (cfg, bcfg, cp, hp, fc), and a wrong guess moves one witness from one
		// checked struct to another.
		vars := map[string]string{}
		bind := func(names []*ast.Ident, typ string) {
			for _, n := range names {
				vars[n.Name] = typ
			}
		}
		var typeOf func(e ast.Expr) string
		typeOf = func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return vars[e.Name]
			case *ast.StarExpr:
				return typeOf(e.X)
			case *ast.ParenExpr:
				return typeOf(e.X)
			case *ast.UnaryExpr:
				return typeOf(e.X)
			case *ast.CompositeLit:
				return censusTypeName(f, pkg, e.Type)
			case *ast.CallExpr:
				return returns[censusTypeName(f, pkg, e.Fun)]
			case *ast.SelectorExpr:
				if decl := structs[typeOf(e.X)]; decl != nil {
					return decl.typ[e.Sel.Name]
				}
			}
			return ""
		}
		// assigned marks every field on the selector chain of an assignment's
		// left-hand side.
		var assigned func(e ast.Expr)
		assigned = func(e ast.Expr) {
			switch x := e.(type) {
			case *ast.StarExpr:
				assigned(x.X)
			case *ast.ParenExpr:
				assigned(x.X)
			case *ast.IndexExpr:
				assigned(x.X)
			case *ast.SelectorExpr:
				if through := typeOf(x.X); through != "" {
					mark(through, x.Sel.Name, path, x.Pos())
				} else {
					for s := range checked {
						mark(s, x.Sel.Name, path, x.Pos())
					}
				}
				assigned(x.X)
			}
		}
		// literal marks the keys of a composite literal of type typ, and
		// carries the element type into the elided literals of a slice or map.
		var literal func(cl *ast.CompositeLit, typ string)
		literal = func(cl *ast.CompositeLit, typ string) {
			elem := ""
			switch tt := cl.Type.(type) {
			case nil:
			case *ast.ArrayType:
				typ, elem = "", censusTypeName(f, pkg, tt.Elt)
			case *ast.MapType:
				typ, elem = "", censusTypeName(f, pkg, tt.Value)
			default:
				typ = censusTypeName(f, pkg, cl.Type)
			}
			for _, el := range cl.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						mark(typ, key.Name, path, kv.Pos())
					}
					el = kv.Value
				}
				if sub, ok := el.(*ast.CompositeLit); ok && sub.Type == nil {
					literal(sub, elem)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					bind(n.Recv.List[0].Names, censusTypeName(f, pkg, n.Recv.List[0].Type))
				}
			case *ast.FuncType:
				for _, p := range n.Params.List {
					bind(p.Names, censusTypeName(f, pkg, p.Type))
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					bind(n.Names, censusTypeName(f, pkg, n.Type))
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							vars[id.Name] = typeOf(n.Rhs[i])
						}
					}
				} else if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						assigned(lhs)
					}
				}
			case *ast.IncDecStmt:
				assigned(n.X)
			case *ast.CompositeLit:
				if n.Type != nil {
					literal(n, "")
				}
			}
			return true
		})
	}

	// The verdict, and the per-struct counts `make counts` prints.
	for _, s := range censusStructs {
		decl := structs[s]
		options, costs := 0, 0
		for _, name := range decl.exported {
			switch typ := decl.typ[name]; {
			case typ == "nesc/internal/sim.Time" || typ == "time.Duration" || strings.HasSuffix(typ, ".float64"):
				costs++
				continue
			case checked[typ]:
				continue
			}
			options++
			if set[s][name] == "" {
				t.Errorf("%s.%s has no setter outside %s: make it a constant and delete what only another value could reach", s, name, decl.file)
			}
		}
		t.Logf("census: %-42s %2d fields = %2d options + %2d calibrated costs + %d nested: %s",
			s, len(decl.exported), options, costs, len(decl.exported)-options-costs, strings.Join(decl.exported, " "))
	}
}
