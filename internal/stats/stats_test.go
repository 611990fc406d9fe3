package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSamplerBasics(t *testing.T) {
	var s Sampler
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Median() != 3 {
		t.Fatalf("Median = %v", s.Median())
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("P100 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
}

func TestSamplerEmpty(t *testing.T) {
	var s Sampler
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 || s.Stddev() != 0 {
		t.Fatal("empty sampler must report zeros")
	}
}

func TestSamplerStddev(t *testing.T) {
	var s Sampler
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Stddev = %v, want 2", got)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sampler
		for _, v := range raw {
			s.Add(float64(v))
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev || v < s.Min()-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding samples in any order yields the same percentile answers.
func TestSamplerOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	var a, b Sampler
	for _, v := range vals {
		a.Add(v)
	}
	shuffled := append([]float64(nil), vals...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, v := range shuffled {
		b.Add(v)
	}
	for _, p := range []float64{10, 50, 90, 99} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("P%v differs between insertion orders", p)
		}
	}
}

// Property: merging any partition of a sample stream, in any order, yields
// the same statistics as one sampler that saw every sample directly.
func TestSamplerMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	var whole Sampler
	for _, v := range vals {
		whole.Add(v)
	}

	// Adversarial orderings: sorted ascending, descending, interleaved
	// extremes, and random shuffles — each split into uneven shards that are
	// merged in a different order than they were filled.
	orderings := map[string]func([]float64) []float64{
		"ascending": func(v []float64) []float64 {
			out := append([]float64(nil), v...)
			sort.Float64s(out)
			return out
		},
		"descending": func(v []float64) []float64 {
			out := append([]float64(nil), v...)
			sort.Sort(sort.Reverse(sort.Float64Slice(out)))
			return out
		},
		"extremes-first": func(v []float64) []float64 {
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			out := make([]float64, 0, len(s))
			for lo, hi := 0, len(s)-1; lo <= hi; lo, hi = lo+1, hi-1 {
				out = append(out, s[hi])
				if lo < hi {
					out = append(out, s[lo])
				}
			}
			return out
		},
		"shuffled": func(v []float64) []float64 {
			out := append([]float64(nil), v...)
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		},
	}
	splits := [][]int{{500}, {1, 499}, {250, 250}, {3, 7, 490}, {100, 200, 150, 50}}

	for name, reorder := range orderings {
		stream := reorder(vals)
		for _, split := range splits {
			shards := make([]*Sampler, len(split))
			off := 0
			for i, n := range split {
				shards[i] = &Sampler{}
				for _, v := range stream[off : off+n] {
					shards[i].Add(v)
				}
				// Exercise the sorted fast paths before merging: a shard
				// that has answered a query must still merge correctly.
				shards[i].Median()
				off += n
			}
			// Merge shards back-to-front into a fresh sampler.
			var m Sampler
			for i := len(shards) - 1; i >= 0; i-- {
				m.Merge(shards[i])
			}
			if m.N() != whole.N() {
				t.Fatalf("%s %v: N = %d, want %d", name, split, m.N(), whole.N())
			}
			if math.Abs(m.Sum()-whole.Sum()) > 1e-6 {
				t.Fatalf("%s %v: Sum = %v, want %v", name, split, m.Sum(), whole.Sum())
			}
			if m.Min() != whole.Min() || m.Max() != whole.Max() {
				t.Fatalf("%s %v: Min/Max = %v/%v, want %v/%v",
					name, split, m.Min(), m.Max(), whole.Min(), whole.Max())
			}
			for _, p := range []float64{0, 1, 25, 50, 75, 99, 100} {
				if got, want := m.Percentile(p), whole.Percentile(p); got != want {
					t.Fatalf("%s %v: P%v = %v, want %v", name, split, p, got, want)
				}
			}
			if math.Abs(m.Stddev()-whole.Stddev()) > 1e-9 {
				t.Fatalf("%s %v: Stddev = %v, want %v", name, split, m.Stddev(), whole.Stddev())
			}
		}
	}
}

func TestSamplerMergeEdgeCases(t *testing.T) {
	var s Sampler
	s.Add(1)
	s.Merge(nil) // no-op
	var empty Sampler
	s.Merge(&empty) // no-op
	if s.N() != 1 || s.Sum() != 1 {
		t.Fatalf("merge of nil/empty changed sampler: N=%d Sum=%v", s.N(), s.Sum())
	}
	var dst Sampler
	dst.Merge(&s)
	dst.Merge(&s) // same source twice
	if dst.N() != 2 || dst.Mean() != 1 {
		t.Fatalf("double merge: N=%d Mean=%v", dst.N(), dst.Mean())
	}
	// Self-merge doubles the contents.
	dst.Merge(&dst)
	if dst.N() != 4 || dst.Sum() != 4 {
		t.Fatalf("self-merge: N=%d Sum=%v", dst.N(), dst.Sum())
	}
	// The source must be unchanged by merges out of it.
	if s.N() != 1 || s.Median() != 1 {
		t.Fatalf("source mutated by merge: N=%d", s.N())
	}
}

// Property: for any two sample sets, merge(a,b) answers quantiles exactly as
// a single sampler over the concatenation does.
func TestSamplerMergeQuantileProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		var sa, sb, whole Sampler
		for _, v := range a {
			sa.Add(float64(v))
			whole.Add(float64(v))
		}
		for _, v := range b {
			sb.Add(float64(v))
			whole.Add(float64(v))
		}
		sa.Merge(&sb)
		for p := 0.0; p <= 100; p += 12.5 {
			if sa.Percentile(p) != whole.Percentile(p) {
				return false
			}
		}
		return sa.N() == whole.N() && sa.Mean() == whole.Mean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterAndRatio(t *testing.T) {
	var r Ratio
	if r.Rate() != 0 {
		t.Fatal("empty ratio rate must be 0")
	}
	r.Hit()
	r.Hit()
	r.Hit()
	r.Miss()
	if r.Total() != 4 || r.Rate() != 0.75 {
		t.Fatalf("Ratio = %v/%v rate %v", r.Hits, r.Total(), r.Rate())
	}
}

func TestTableSetGetOrdering(t *testing.T) {
	tb := NewTable("t", "bs", "MB/s", "Host", "NeSC")
	tb.Set("1KB", "NeSC", 100)
	tb.Set("1KB", "Host", 110)
	tb.Set("4KB", "NeSC", 400)
	tb.Set("4KB", "virtio", 150) // new column appended
	if v := tb.MustGet("1KB", "NeSC"); v != 100 {
		t.Fatalf("cell = %v", v)
	}
	if _, ok := tb.Get("4KB", "Host"); ok {
		t.Fatal("missing cell reported present")
	}
	rows := tb.Rows()
	if len(rows) != 2 || rows[0] != "1KB" || rows[1] != "4KB" {
		t.Fatalf("rows = %v", rows)
	}
	wantCols := []string{"Host", "NeSC", "virtio"}
	if len(tb.Columns) != 3 {
		t.Fatalf("columns = %v", tb.Columns)
	}
	for i, c := range wantCols {
		if tb.Columns[i] != c {
			t.Fatalf("columns = %v, want %v", tb.Columns, wantCols)
		}
	}
}

func TestTableMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on missing cell did not panic")
		}
	}()
	NewTable("t", "x", "").MustGet("a", "b")
}

// SetRow fills a row in declared column order, leaves the cell of a
// non-finite value empty, and rejects a value count that is not the column
// count.
func TestTableSetRow(t *testing.T) {
	tb := NewTable("t", "x", "", "a", "b", "ratio")
	tb.SetRow("r", 1, 2, 0.5)
	tb.SetRow("zero denominator", 3, 0, math.Inf(1))
	tb.SetRow("nothing ran", 0, 0, math.NaN())
	if a, b, r := tb.MustGet("r", "a"), tb.MustGet("r", "b"), tb.MustGet("r", "ratio"); a != 1 || b != 2 || r != 0.5 {
		t.Errorf("row r = %v %v %v, want 1 2 0.5", a, b, r)
	}
	for _, row := range []string{"zero denominator", "nothing ran"} {
		if _, ok := tb.Get(row, "ratio"); ok {
			t.Errorf("row %q has a ratio cell for a non-finite value", row)
		}
		if _, ok := tb.Get(row, "b"); !ok {
			t.Errorf("row %q lost its finite cells", row)
		}
	}
	for _, vals := range [][]float64{{1, 2}, {1, 2, 3, 4}, nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRow accepted %d values for 3 columns", len(vals))
				}
			}()
			tb.SetRow("bad", vals...)
		}()
	}
	if _, ok := tb.Get("bad", "a"); ok {
		t.Error("a rejected row left cells behind")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "block", "us", "A", "B")
	tb.Set("512B", "A", 1.5)
	tb.Set("512B", "B", 20)
	tb.Note("note line")
	s := tb.String()
	for _, want := range []string{"Figure X", "[us]", "block", "512B", "1.50", "20", "# note line"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "block,A,B\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "512B,1.50,20") {
		t.Fatalf("csv row wrong: %q", csv)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("t", `x,"y"`, "")
	tb.Set("a,b", "c", 1)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,""y"""`) || !strings.Contains(csv, `"a,b"`) {
		t.Fatalf("csv escaping wrong: %q", csv)
	}
}

// Property: every value set into a table can be read back exactly.
func TestTableRoundTripProperty(t *testing.T) {
	f := func(keys []uint8, vals []uint32) bool {
		tb := NewTable("p", "x", "")
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		type kv struct {
			x, c string
			v    float64
		}
		var want []kv
		for i := 0; i < n; i++ {
			x := string(rune('a' + keys[i]%8))
			c := string(rune('A' + keys[i]%5))
			v := float64(vals[i])
			tb.Set(x, c, v)
			want = append(want, kv{x, c, v})
		}
		// Later sets overwrite earlier ones; check the final value per key.
		final := make(map[[2]string]float64)
		for _, w := range want {
			final[[2]string{w.x, w.c}] = w.v
		}
		for k, v := range final {
			got, ok := tb.Get(k[0], k[1])
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatCell(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{3, "3"},
		{1234.56, "1234.6"},
		{12.345, "12.35"},
		{0.1234, "0.1234"},
	}
	for _, c := range cases {
		if got := formatCell(c.v); got != c.want {
			t.Errorf("formatCell(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
