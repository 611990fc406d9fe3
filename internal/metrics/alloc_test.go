package metrics

import "testing"

// The instrument hot paths run inside the device pipeline on every request;
// they must never allocate in steady state (registration may, once).

func TestInstrumentHotPathsDoNotAllocate(t *testing.T) {
	r := New()
	c := r.Counter("nesc_alloc_test_total", "alloc guard counter", VFLabel(1))
	h := r.Histogram("nesc_alloc_test_ns", "alloc guard histogram", VFLabel(1))

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Histogram.Observe", func() { h.Observe(12_345) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(1000, tc.fn); avg != 0 {
			t.Errorf("%s allocates %v per call, want 0", tc.name, avg)
		}
	}

	// Nil instruments are the disabled-telemetry fast path: also alloc-free.
	var nc *Counter
	var nh *Histogram
	nilCases := []struct {
		name string
		fn   func()
	}{
		{"nil Counter.Inc", func() { nc.Inc() }},
		{"nil Histogram.Observe", func() { nh.Observe(1) }},
	}
	for _, tc := range nilCases {
		if avg := testing.AllocsPerRun(1000, tc.fn); avg != 0 {
			t.Errorf("%s allocates %v per call, want 0", tc.name, avg)
		}
	}
}

func TestRepeatLookupDoesNotGrowSeries(t *testing.T) {
	r := New()
	// Re-requesting the same {family, labels} must return the same series,
	// not mint a new one per call site.
	a := r.Counter("nesc_alloc_lookup_total", "lookup identity", VFQOp(2, 1, "read"))
	b := r.Counter("nesc_alloc_lookup_total", "lookup identity", VFQOp(2, 1, "read"))
	if a != b {
		t.Fatal("same family+labels returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared series value = %d, want 1", b.Value())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("nesc_bench_total", "bench counter", NoLabels)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("nesc_bench_ns", "bench histogram", NoLabels)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
