package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestNilRegistryAndInstrumentsNoOp(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x", "", NoLabels)
	h := r.Histogram("x", "", NoLabels)
	r.GaugeFunc("x", "", NoLabels, func() float64 { return 1 })
	c.Inc()
	c.Add(5)
	h.Observe(100)
	if c.Value() != 0 || h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments recorded something")
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry exported %q", b.String())
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("nesc_test_total", "help", VFLabel(1))
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if again := r.Counter("nesc_test_total", "help", VFLabel(1)); again != c {
		t.Fatal("second lookup returned a different series")
	}
}

// TestHistogramBucketBoundaries pins the log2 bucket contract at the exact
// power-of-two edges: a bound's own value lands in its bucket (inclusive
// upper bound), one past it in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := &Histogram{}
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 0}, // (-inf, 1]
		{2, 1},         // (1, 2]
		{3, 2}, {4, 2}, // (2, 4]
		{5, 3}, {8, 3}, // (4, 8]
		{1024, 10},    // (512, 1024]
		{1025, 11},    // (1024, 2048]
		{1 << 39, 39}, // top finite bucket
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.bucket {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.bucket)
		}
		h.Observe(c.v)
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	if h.Overflow() != 0 {
		t.Fatalf("overflow = %d, want 0", h.Overflow())
	}
	for i, want := range map[int]int64{0: 3, 1: 1, 2: 2, 3: 2, 10: 1, 11: 1, 39: 1} {
		if h.buckets[i] != want {
			t.Errorf("bucket[%d] = %d, want %d", i, h.buckets[i], want)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := &Histogram{}
	top := UpperBound(HistogramBuckets - 1)
	h.Observe(top)     // last finite bucket, inclusive
	h.Observe(top + 1) // overflow
	h.Observe(math.MaxInt64)
	if h.Overflow() != 2 {
		t.Fatalf("overflow = %d, want 2", h.Overflow())
	}
	if h.buckets[HistogramBuckets-1] != 1 {
		t.Fatalf("top finite bucket = %d, want 1", h.buckets[HistogramBuckets-1])
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	// A quantile landing in the overflow reports the last finite bound.
	if q := h.Quantile(1); q != float64(top) {
		t.Fatalf("Quantile(1) = %v, want %v", q, float64(top))
	}
}

func TestHistogramQuantileWithinBucketFactor(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 1000; i++ {
		h.Observe(700) // all samples in (512, 1024]
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		est := h.Quantile(q)
		if est < 512 || est > 1024 {
			t.Fatalf("Quantile(%v) = %v, outside the sample's bucket (512,1024]", q, est)
		}
	}
	if m := h.Mean(); m != 700 {
		t.Fatalf("mean = %v, want exact 700 (sum is not bucketed)", m)
	}
}

func TestLabelCardinalityCap(t *testing.T) {
	r := New()
	for i := 0; i < MaxSeriesPerFamily+50; i++ {
		r.Counter("nesc_capped_total", "", Labels{VF: i, Q: -1}).Inc()
	}
	if d := r.Dropped("nesc_capped_total"); d != 50 {
		t.Fatalf("dropped = %d, want 50", d)
	}
	// All 50 overflowing label sets share one series.
	over := r.Counter("nesc_capped_total", "", Labels{VF: -1, Q: -1, Op: "overflow"})
	if over.Value() != 50 {
		t.Fatalf("overflow series = %d, want 50", over.Value())
	}
	// Pre-cap series are untouched.
	if v := r.Counter("nesc_capped_total", "", Labels{VF: 0, Q: -1}).Value(); v != 1 {
		t.Fatalf("series vf=0 = %d, want 1", v)
	}
}

func TestGaugeFuncReRegistrationReplaces(t *testing.T) {
	r := New()
	r.GaugeFunc("nesc_live", "", NoLabels, func() float64 { return 1 })
	r.GaugeFunc("nesc_live", "", NoLabels, func() float64 { return 2 })
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "nesc_live 2") {
		t.Fatalf("expected replaced gauge func value 2 in:\n%s", b.String())
	}
}

// parsePromText is a strict little parser for the exposition format: every
// non-comment line must be `name[{k="v",...}] value`.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatal("blank line in exposition output")
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		var val float64
		if _, err := fmt.Sscanf(valStr, "%g", &val); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name = key[:i]
			body := key[i+1 : len(key)-1]
			for _, pair := range strings.Split(body, ",") {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 || len(pair) < eq+3 || pair[eq+1] != '"' || pair[len(pair)-1] != '"' {
					t.Fatalf("malformed label pair %q in %q", pair, line)
				}
			}
		}
		for _, ch := range name {
			if !(ch == '_' || ch == ':' || (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')) {
				t.Fatalf("invalid metric name %q", name)
			}
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = val
	}
	return samples
}

func TestPrometheusExport(t *testing.T) {
	r := New()
	r.Counter("nesc_reqs_total", "requests completed", VFQOp(1, 0, "read")).Add(7)
	r.GaugeFunc("nesc_depth", "", Labels{VF: 1, Q: 2}, func() float64 { return 3.5 })
	h := r.Histogram("nesc_lat_ns", "stage latency", VFQOp(1, 0, "write"))
	h.Observe(1)
	h.Observe(3)
	h.Observe(1000)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, b.String())

	checks := map[string]float64{
		`nesc_reqs_total{vf="1",q="0",op="read"}`:               7,
		`nesc_depth{vf="1",q="2"}`:                              3.5,
		`nesc_lat_ns_count{vf="1",q="0",op="write"}`:            3,
		`nesc_lat_ns_sum{vf="1",q="0",op="write"}`:              1004,
		`nesc_lat_ns_bucket{vf="1",q="0",op="write",le="1"}`:    1,
		`nesc_lat_ns_bucket{vf="1",q="0",op="write",le="4"}`:    2,
		`nesc_lat_ns_bucket{vf="1",q="0",op="write",le="1024"}`: 3,
		`nesc_lat_ns_bucket{vf="1",q="0",op="write",le="+Inf"}`: 3,
	}
	for key, want := range checks {
		got, ok := samples[key]
		if !ok {
			t.Fatalf("missing sample %q in:\n%s", key, b.String())
		}
		if got != want {
			t.Fatalf("sample %q = %v, want %v", key, got, want)
		}
	}
	// Cumulative monotonicity across emitted buckets.
	prev := -1.0
	for _, le := range []string{"1", "4", "1024", "+Inf"} {
		v := samples[`nesc_lat_ns_bucket{vf="1",q="0",op="write",le="`+le+`"}`]
		if v < prev {
			t.Fatalf("bucket le=%s count %v below previous %v", le, v, prev)
		}
		prev = v
	}
	// Determinism: a second export is byte-identical.
	var b2 bytes.Buffer
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("two exports of an idle registry differ")
	}
}

func TestJSONExport(t *testing.T) {
	r := New()
	r.Counter("nesc_a_total", "", VFLabel(3)).Add(2)
	r.Histogram("nesc_b_ns", "", NoLabels).Observe(100)
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var fams []struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Series []struct {
			VF    *int     `json:"vf"`
			Value *float64 `json:"value"`
			Hist  *struct {
				Count   int64            `json:"count"`
				Buckets map[string]int64 `json:"buckets"`
			} `json:"histogram"`
		} `json:"series"`
	}
	if err := json.Unmarshal(b.Bytes(), &fams); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, b.String())
	}
	// User families in sorted order, then the synthesized cardinality-health
	// trailer.
	if len(fams) != 3 || fams[0].Name != "nesc_a_total" || fams[1].Name != "nesc_b_ns" ||
		fams[2].Name != "nesc_metrics_series_dropped_total" {
		t.Fatalf("unexpected families: %+v", fams)
	}
	if *fams[2].Series[0].Value != 0 {
		t.Fatalf("dropped-series trailer non-zero on an uncapped registry: %+v", fams[2].Series[0])
	}
	if *fams[0].Series[0].VF != 3 || *fams[0].Series[0].Value != 2 {
		t.Fatalf("counter series wrong: %+v", fams[0].Series[0])
	}
	if fams[1].Series[0].Hist.Count != 1 || fams[1].Series[0].Hist.Buckets["128"] != 1 {
		t.Fatalf("histogram series wrong: %+v", fams[1].Series[0].Hist)
	}
}

func TestFamilyKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := New()
	r.Counter("nesc_x", "", NoLabels)
	r.Histogram("nesc_x", "", NoLabels)
}

func TestSeriesCapOverridePreservesOp(t *testing.T) {
	r := New()
	r.SetSeriesCap(4)
	// Ten VFs, two ops: the first four label sets get real series, the rest
	// aggregate into one overflow series per op — the op dimension survives
	// the cardinality collapse.
	for i := 0; i < 10; i++ {
		r.Counter("nesc_ops_total", "", Labels{VF: i, Q: -1, Op: "read"}).Inc()
		r.Counter("nesc_ops_total", "", Labels{VF: i, Q: -1, Op: "write"}).Inc()
	}
	if d := r.Dropped("nesc_ops_total"); d != 16 {
		t.Fatalf("dropped = %d, want 16", d)
	}
	if v := r.Counter("nesc_ops_total", "", Labels{VF: -1, Q: -1, Op: "read_overflow"}).Value(); v != 8 {
		t.Fatalf("read overflow = %d, want 8", v)
	}
	if v := r.Counter("nesc_ops_total", "", Labels{VF: -1, Q: -1, Op: "write_overflow"}).Value(); v != 8 {
		t.Fatalf("write overflow = %d, want 8", v)
	}
	if total := r.DroppedTotal(); total != 16 {
		t.Fatalf("DroppedTotal = %d, want 16", total)
	}
	// The exporter surfaces registry health as a synthesized counter.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nesc_metrics_series_dropped_total 16\n") {
		t.Errorf("prometheus export missing dropped-series trailer:\n%s", buf.String())
	}
	// Resetting the cap restores the default for future series.
	r.SetSeriesCap(0)
	r.Counter("nesc_fresh_total", "", Labels{VF: 99, Q: -1}).Inc()
	if d := r.Dropped("nesc_fresh_total"); d != 0 {
		t.Fatalf("default cap dropped %d series on a fresh family", d)
	}
}
