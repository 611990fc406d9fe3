package nesc

// What a reader is shown runs, or is checked against the code that does.
// layers_test.go holds DESIGN.md §3 to the import graph; this holds DESIGN.md's
// other tables that name code — the experiment index and its results files,
// the VF lifecycle, the mechanism homes, every repository path — and
// README.md's nescbench flags, experiment names and make targets. README's
// nescctl lines are rows of cmd/nescctl/main_test.go, which runs them. The
// checks are syntactic (go/parser), so a failure names the row.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nesc/internal/bench"
)

// codeSpan matches one inline code span of markdown.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// spans returns the inline code spans of s.
func spans(s string) []string {
	var out []string
	for _, m := range codeSpan.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

// readDoc returns a repository file as a string.
func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// docTable returns the cells of every row of the table in doc whose header
// row starts with "| header |".
func docTable(t *testing.T, doc, header string) [][]string {
	t.Helper()
	_, table, ok := strings.Cut(readDoc(t, doc), "\n| "+header+" |")
	if !ok {
		t.Fatalf("%s has no table headed %q", doc, header)
	}
	var rows [][]string
	for _, line := range strings.Split(table, "\n")[2:] { // the header's tail, the separator
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), " | ")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}

// goDecls parses the Go files at paths (a file as named, a directory's
// non-test files) and returns each function by name — a method as
// Recv.Name — with the names every call in its body calls (the selected name
// of x.f(), or f of f()), and each type declared.
func goDecls(t *testing.T, paths ...string) (funcs map[string][]string, types map[string]bool) {
	t.Helper()
	funcs, types = map[string][]string{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		files := []string{path}
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			files, _ = filepath.Glob(filepath.Join(path, "*.go"))
			files = slices.DeleteFunc(files, func(f string) bool { return strings.HasSuffix(f, "_test.go") })
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							types[ts.Name.Name] = true
						}
					}
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if idx, ok := recv.(*ast.IndexExpr); ok {
							recv = idx.X
						}
						name = recv.(*ast.Ident).Name + "." + name
					}
					var calls []string
					ast.Inspect(d, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							switch fn := call.Fun.(type) {
							case *ast.Ident:
								calls = append(calls, fn.Name)
							case *ast.SelectorExpr:
								calls = append(calls, fn.Sel.Name)
							}
						}
						return true
					})
					funcs[name] = calls
				}
			}
		}
	}
	return funcs, types
}

// The experiment index lists every registered experiment, and nothing else.
func TestDesignExperimentIndexIsTheRegistry(t *testing.T) {
	indexed := map[string]bool{}
	for _, row := range docTable(t, "DESIGN.md", "experiment") {
		indexed[strings.Trim(row[0], "`")] = true
	}
	for _, e := range bench.Registry() {
		if !indexed[e.Name] {
			t.Errorf("experiment %s is registered but not in DESIGN.md §4's index", e.Name)
		}
		delete(indexed, e.Name)
	}
	for name := range indexed {
		t.Errorf("DESIGN.md §4's index lists %s, which bench.Registry() does not", name)
	}
}

// The index's results files are results/'s: every file the column lists
// exists, and every results/*.json but the benchmark reports (BENCH_*.json) is
// listed there, on the row of the experiment it is named after. The golden
// run checks an experiment's JSON exactly when its file exists, so a file
// deleted or renamed would otherwise drop its check silently.
func TestDesignResultsFilesAreResults(t *testing.T) {
	listed := map[string]string{} // file -> experiment
	for _, row := range docTable(t, "DESIGN.md", "experiment") {
		for _, file := range spans(row[2]) {
			listed[file] = strings.Trim(row[0], "`")
			if _, err := os.Stat(file); err != nil {
				t.Errorf("DESIGN.md §4 lists %s: %v", file, err)
			}
		}
	}
	files, err := filepath.Glob("results/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasPrefix(file, "results/BENCH_") {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(file, "results/"), ".json")
		if _, err := bench.ByName(name); err != nil {
			t.Errorf("%s names no registered experiment: %v", file, err)
		}
		if exp, ok := listed[file]; !ok || exp != name {
			t.Errorf("%s is not in DESIGN.md §4's results file column on the %s row", file, name)
		}
	}
}

// Every home of a mechanism is declared in the file its row names.
func TestDesignMechanismHomesAreDeclared(t *testing.T) {
	for _, row := range docTable(t, "DESIGN.md", "mechanism") {
		file := strings.Trim(row[2], "`")
		funcs, types := goDecls(t, file)
		for _, home := range spans(row[1]) {
			if _, ok := funcs[home]; !ok && !types[home] {
				t.Errorf("DESIGN.md §11: %s (%s) is not declared in %s", home, row[0], file)
			}
		}
	}
}

// Every entry point of the VF lifecycle reaches Device.transition, directly or
// through another entry point of the table.
func TestDesignVFLifecycleGoesThroughTransition(t *testing.T) {
	funcs, _ := goDecls(t, "internal/hypervisor")
	// Entry points are written by their name; a method is found on any
	// receiver.
	callees := map[string][]string{}
	for name, calls := range funcs {
		_, method, _ := strings.Cut(name, ".")
		if method == "" {
			method = name
		}
		callees[method] = append(callees[method], calls...)
	}
	var entries []string
	for _, row := range docTable(t, "DESIGN.md", "transition") {
		for _, e := range spans(row[1]) {
			if _, ok := callees[e]; !ok {
				t.Errorf("DESIGN.md §7: entry point %s (%s) is not declared in internal/hypervisor", e, row[0])
			}
			entries = append(entries, e)
		}
	}
	// reaches grows from transition to every entry point that calls one it
	// holds, until nothing changes.
	reaches := map[string]bool{"transition": true}
	for changed := true; changed; {
		changed = false
		for _, e := range entries {
			if !reaches[e] && slices.ContainsFunc(callees[e], func(c string) bool { return reaches[c] }) {
				reaches[e], changed = true, true
			}
		}
	}
	for _, e := range entries {
		if !reaches[e] {
			t.Errorf("DESIGN.md §7: entry point %s changes a VF record without going through Device.transition", e)
		}
	}
}

// goldenColumn returns one column of a table in results/all_experiments.txt:
// the rows under the "== title" line up to the first blank or comment line,
// keyed by their first field in lower case.
func goldenColumn(t *testing.T, golden, title string, col int) map[string]float64 {
	t.Helper()
	_, table, ok := strings.Cut(golden, "\n== "+title)
	if !ok {
		t.Fatalf("results/all_experiments.txt has no table %q", title)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(table, "\n")[2:] { // the title's tail, the header
		f := strings.Fields(line)
		if len(f) <= col || strings.HasPrefix(line, "#") {
			break
		}
		v, err := strconv.ParseFloat(f[col], 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", title, line, err)
		}
		out[strings.ToLower(f[0])] = v
	}
	return out
}

// EXPERIMENTS.md's Figure 12 table is the golden run's, rounded to the digits
// it prints: each app's NeSC runtime and its speedups over virtio (12b) and
// over emulation (12a).
func TestExperimentsFig12IsTheGolden(t *testing.T) {
	golden := readDoc(t, "results/all_experiments.txt")
	cols := []map[string]float64{
		goldenColumn(t, golden, "Figure 12 (underlying data)", 3),
		goldenColumn(t, golden, "Figure 12b", 1),
		goldenColumn(t, golden, "Figure 12a", 1),
	}
	rows := docTable(t, "EXPERIMENTS.md", "app")
	if len(rows) != len(cols[0]) {
		t.Errorf("EXPERIMENTS.md's Figure 12 table has %d apps, the golden run %d", len(rows), len(cols[0]))
	}
	for _, row := range rows {
		for i, col := range cols {
			cell := strings.TrimRight(row[1+i], " ms×")
			doc, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("EXPERIMENTS.md Figure 12 row %v: %v", row, err)
			}
			app := strings.ToLower(row[0])
			var want float64
			for name, v := range col {
				if strings.HasPrefix(app, name) {
					want = v
				}
			}
			decimals := 0
			if _, frac, ok := strings.Cut(cell, "."); ok {
				decimals = len(frac)
			}
			if scale := math.Pow(10, float64(decimals)); math.Round(want*scale)/scale != doc {
				t.Errorf("EXPERIMENTS.md Figure 12: %s reads %s, the golden run %v", row[0], row[1+i], want)
			}
		}
	}
}

// Every repository path DESIGN.md names exists.
func TestDesignPathsExist(t *testing.T) {
	for _, s := range spans(readDoc(t, "DESIGN.md")) {
		if !strings.ContainsAny(s, " <*") && slices.ContainsFunc([]string{"internal/", "cmd/", "results/"}, func(p string) bool { return strings.HasPrefix(s, p) }) {
			if _, err := os.Stat(s); err != nil {
				t.Errorf("DESIGN.md names %s: %v", s, err)
			}
		}
	}
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// README's nescbench flags are declared in cmd/nescbench, its experiments are
// registered, and its make targets are in the Makefile.
func TestReadmeNamesWhatExists(t *testing.T) {
	readme := readDoc(t, "README.md")

	flags := map[string]bool{}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cmd/nescbench/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, "flag") {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok {
					name, _ := strconv.Unquote(lit.Value)
					flags[name] = true
				}
			}
		}
		return true
	})
	for _, m := range regexp.MustCompile("nescbench([^`#\n]*)").FindAllStringSubmatch(readme, -1) {
		for _, arg := range strings.Fields(m[1]) {
			if name, ok := strings.CutPrefix(arg, "-"); ok && !flags[name] {
				t.Errorf("README runs nescbench with -%s, which cmd/nescbench/main.go does not declare", name)
			}
		}
	}

	exps := map[string]bool{"all": true}
	for _, e := range bench.Registry() {
		exps[e.Name] = true
	}
	for _, m := range regexp.MustCompile(`-exp\s+(\w+)`).FindAllStringSubmatch(readme, -1) {
		if !exps[m[1]] {
			t.Errorf("README names experiment %s, which bench.Registry() does not hold", m[1])
		}
	}

	makefile := readDoc(t, "Makefile")
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][\w-]*):([^=]|$)`).FindAllStringSubmatch(makefile, -1) {
		targets[m[1]] = true
	}
	for _, m := range regexp.MustCompile("(?m)(?:^|`)make ([\\w-]+)").FindAllStringSubmatch(readme, -1) {
		if !targets[m[1]] {
			t.Errorf("README names make %s, which the Makefile does not define", m[1])
		}
	}
}
