package nesc

// The package graph. census_test.go holds every option to one setter and
// catalogue_test.go every counter to one declaration; this holds every package
// under internal/ to one layer, and every import to the layers below it. The
// kernel is the system the paper describes (PAPER.md §2's substitution table,
// DESIGN.md §3): a reader who wants Figs. 2 and 9–12 reads it and nothing
// else, because it imports nothing else.
//
// The check is syntactic (go/parser, import declarations only) over every
// non-test file outside benchmarks/, so a failure names the file that holds
// the offending import.

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// layers is the table, lowest layer first. A package may import the packages
// of its own layer and of the layers before it; the exceptions are spelled out
// below it. `make counts` prints one line total per layer from the lines this
// test logs, and DESIGN.md §3 is this table with a sentence per package.
var layers = []struct {
	name string
	pkgs []string
}{
	// Utilities with no model in them; they may import sim and nothing else.
	{"leaves", []string{"fault", "stats"}},
	// The paper's system.
	{"kernel", []string{"sim", "hostmem", "pcie", "ring", "extent", "blockdev", "extfs", "core", "virtio", "guest", "hypervisor", "workload"}},
	// Telemetry consumers.
	{"sinks", []string{"trace", "metrics", "slo"}},
	// What is built on the kernel: each attaches to the hypervisor through its
	// exported steps or one declared seam, and the hypervisor never names it.
	{"features", []string{"fabric", "cas"}},
	// Assembles platforms and runs experiments. The root package and cmd/
	// belong here too and are the only other importers of bench.
	{"harness", []string{"bench"}},
}

// fence lists the kernel's imports of higher layers: exactly these, each used.
// It can only shrink: an edge that is not listed fails the test, and so does a
// listed edge no file uses any more.
var fence = map[string]string{
	"core → trace": "the controller's one telemetry spine (core/telemetry.go, flight.go) fans out to the concrete sinks, and " +
		"pipeline sites name trace tags and kinds; every sink imports nothing of the kernel but sim, so the edges force no " +
		"feature on a reader and close no cycle. Cutting them is an observer interface plus ~15 accessors: ROADMAP item 9",
	"core → slo":     "as core → trace (attribution segments, SLO engine, scoreboard events)",
	"core → metrics": "as core → trace (histogram and gauge families)",
}

// paperExperiments are the files of internal/bench that regenerate the paper's
// own tables and figures, and the experiment skeleton they are written on
// (points.go); they may name the kernel and stats only, so they can move into
// a kernel-only package once bench is split (ROADMAP item 5).
var paperExperiments = []string{"tables.go", "fig2.go", "fig9_10.go", "fig11.go", "fig12.go", "ablations.go", "points.go"}

func TestLayers(t *testing.T) {
	rank := map[string]int{}
	for i, l := range layers {
		for _, p := range l.pkgs {
			rank[p] = i
		}
		t.Logf("layers: %s = %s", l.name, strings.Join(l.pkgs, " "))
	}
	const leaves, kernel = 0, 1 // indices into layers

	// Every directory under internal/ is classified, and every classified
	// package exists.
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dirs {
		seen[d.Name()] = true
		if _, ok := rank[d.Name()]; d.IsDir() && !ok {
			t.Errorf("internal/%s is in no layer: classify it in layers_test.go and DESIGN.md §3", d.Name())
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section3, _ := strings.Cut(string(design), "\n## 3.")
	section3, _, _ = strings.Cut(section3, "\n## ")
	for p := range rank {
		if !seen[p] {
			t.Errorf("layers_test.go classifies internal/%s, which does not exist", p)
		}
		if !strings.Contains(section3, "`internal/"+p+"`") {
			t.Errorf("DESIGN.md §3 does not list `internal/%s`", p)
		}
	}

	fenceUsed := map[string]string{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmarks" || path != "." && strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir // the nested module; build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		// from is the importing package under internal/ ("" for the root
		// package and cmd/, which are harness).
		from := ""
		if rest, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/"); ok {
			from = rest
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			to, ok := strings.CutPrefix(ipath, "nesc/internal/")
			if !ok || to == from {
				continue
			}
			switch {
			case to == "bench":
				if from != "" {
					t.Errorf("%s imports bench: only the root package and cmd/ may", path)
				}
			case from == "":
				// Harness outside internal/: anything goes.
			case rank[from] == leaves:
				if to != "sim" {
					t.Errorf("%s: leaf utility %s imports %s; a leaf may import sim only", path, from, to)
				}
			case rank[from] == kernel && rank[to] > kernel:
				edge := from + " → " + to
				if fence[edge] == "" {
					t.Errorf("%s: kernel package %s imports %s (%s): the kernel imports kernel, fault and stats; "+
						"a feature attaches through the hypervisor's exported steps or one declared seam", path, from, to, layers[rank[to]].name)
				}
				fenceUsed[edge] = path
			case rank[to] > rank[from]:
				t.Errorf("%s: %s (%s) imports %s (%s), a layer above it", path, from, layers[rank[from]].name, to, layers[rank[to]].name)
			}
			if to == "core" && rank[from] == kernel && from != "hypervisor" {
				t.Errorf("%s: %s imports the controller; of the kernel only the hypervisor does — a driver knows the device "+
					"through its registers and rings, internal/ring", path, from)
			}
			if from == "bench" && slices.Contains(paperExperiments, filepath.Base(path)) && rank[to] > kernel {
				t.Errorf("%s regenerates one of the paper's own figures and imports %s (%s): those files name the kernel and stats only",
					path, to, layers[rank[to]].name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for edge, why := range fence {
		if fenceUsed[edge] == "" {
			t.Errorf("the fence lists %s, which no file imports any more: delete the entry (%s)", edge, why)
		}
		t.Logf("fenced: %s (%s, ...)", edge, fenceUsed[edge])
	}
	if len(fence) > 3 {
		t.Errorf("the fence holds %d edges; it started at three and only shrinks", len(fence))
	}
}
