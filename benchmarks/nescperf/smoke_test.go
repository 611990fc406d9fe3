package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func smokeOptions(t *testing.T) options {
	return options{seed: 1, seconds: 1, smoke: true, traceDir: t.TempDir()}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkTable(t *testing.T, defs []metricDef, values map[string]float64) {
	t.Helper()
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q unit %q: bad or duplicate name or unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if x, ok := values[d.Name]; !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("metric %s: emitted %v, value %v", d.Name, ok, x)
		}
	}
	if _, err := encodeResult(defs, values, true, 1, 0); err != nil {
		t.Error(err)
	}
}

// TestSmokeEveryMetricOnEveryWorkload runs each workload's traced child at
// smoke size. Its two passes share a seed, so they also show that the same
// seed gives identical virtual-clock metrics.
func TestSmokeEveryMetricOnEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			m, u, tr, err := measureTraced(smokeOptions(t), wl)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || m.checkErr != nil {
				t.Fatalf("%d of %d ops failed, checks: %v", m.failed, m.attempted, m.checkErr)
			}
			checkTable(t, perLayer, m.values)
			first := endToEndValues(u, []time.Duration{u.setup})
			again := endToEndValues(tr, []time.Duration{tr.setup})
			checkTable(t, endToEnd, first)
			for _, d := range endToEnd {
				if first[d.Name] == 0 {
					t.Errorf("%s is 0: end-to-end metrics must never be", d.Name)
				}
				if d.virtual && first[d.Name] != again[d.Name] {
					t.Errorf("%s: %v then %v on one seed", d.Name, first[d.Name], again[d.Name])
				}
			}
		})
	}
}

func TestSeedChangesOps(t *testing.T) {
	for _, wl := range workloads {
		a := wl.plan(rand.New(rand.NewSource(1)), wl.smokeOps)
		b := wl.plan(rand.New(rand.NewSource(1)), wl.smokeOps)
		c := wl.plan(rand.New(rand.NewSource(2)), wl.smokeOps)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two plans", wl.name)
		}
		if reflect.DeepEqual(a.clients[0].ops, c.clients[0].ops) {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", wl.name)
		}
	}
}

func TestInjectedMismatchCounts(t *testing.T) {
	o := smokeOptions(t)
	o.inject = true
	m, err := measureEndToEnd(o, workloadByName("raw-small-qd1"))
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 1 {
		t.Fatalf("failed = %d after one injected mismatch, want 1", m.failed)
	}
	if m.emit() == nil {
		t.Fatal("a run with a failed op must exit non-zero")
	}
}

func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with nescperf -print-benchmark-json")
	}
	var doc struct{ Workloads []struct{ Name, Why string } }
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters (limit 200)", w.Name, len(w.Why))
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	mk := func(v ...float64) *samples {
		s := &samples{Values: v}
		s.summarise()
		return s
	}
	lowerIsBetter := metricDef{Name: "wall_s", Better: lower, Bound: 0.10}
	cases := []struct {
		a, b *samples
		want string
	}{
		{mk(10, 10.1, 10.2), mk(10.3, 10.4, 10.5), verdictOK},
		{mk(10, 10.1, 10.2), mk(11.5, 11.6, 11.7), verdictWorse},
		{mk(8, 10, 12), mk(8.5, 10.5, 12.5), verdictUnresolved},
		{mk(8, 10, 12), mk(5, 6, 7), verdictOK}, // noisy, but every run better
	}
	for i, c := range cases {
		if got := judge(lowerIsBetter, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}
