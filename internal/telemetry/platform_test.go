package telemetry_test

import (
	"testing"

	"nesc/internal/bench"
	"nesc/internal/metrics"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/telemetry"
	"nesc/internal/trace"
)

// A platform's sinks are fed from the stage table: every chunk passes each
// chunk stage once, so their histograms agree; the fetch and end-to-end
// histograms count the requests; and the ring sees the request life cycle.
func TestStagesFeedTheSinks(t *testing.T) {
	cfg := bench.DefaultConfig()
	cfg.Tel = telemetry.Sinks{Metrics: metrics.New(), Events: trace.NewRing(4096), Spans: trace.NewSpanRecorder(64)}
	pl := bench.NewPlatform(cfg)
	err := pl.Run(func(p *sim.Proc) error {
		tgt, err := pl.RawTarget(p, bench.BackendNeSC, 1024)
		if err != nil {
			return err
		}
		for i := int64(0); i < 8; i++ {
			if err := tgt.WriteAt(p, i*4096, 4096); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, l := cfg.Tel.Metrics, metrics.VFQOp(1, 0, "write")
	count := func(fam string) int64 { return reg.Histogram(fam, "", l).Count() }
	reqs := reg.Counter("nesc_requests_total", "", l).Value()
	if reqs < 8 || count("nesc_pipeline_fetch_ns") != reqs || count("nesc_request_ns") != reqs {
		t.Errorf("requests %d, fetch histogram %d, end-to-end histogram %d", reqs, count("nesc_pipeline_fetch_ns"), count("nesc_request_ns"))
	}
	chunks := count("nesc_pipeline_queue_wait_ns")
	translated := count("nesc_pipeline_translate_hit_ns") + count("nesc_pipeline_translate_walk_ns") +
		count("nesc_pipeline_translate_miss_ns") + count("nesc_pipeline_translate_cow_ns")
	if chunks < 32 || translated != chunks || count("nesc_pipeline_dtu_wait_ns") != chunks || count("nesc_pipeline_transfer_ns") != chunks {
		t.Errorf("queue %d, translate %d, dtu wait %d, transfer %d: every chunk passes each stage once",
			chunks, translated, count("nesc_pipeline_dtu_wait_ns"), count("nesc_pipeline_transfer_ns"))
	}
	seen := map[trace.Kind]bool{}
	for _, e := range cfg.Tel.Events.Events() {
		if e.Fn == 1 {
			seen[e.Kind] = true
		}
	}
	for _, k := range []trace.Kind{trace.KindFetch, trace.KindTranslate, trace.KindTransfer, trace.KindComplete} {
		if !seen[k] {
			t.Errorf("the ring saw no %s event of the VF", k)
		}
	}
	for _, s := range cfg.Tel.Spans.Spans() {
		if s.Fn == 1 && s.Status != ring.StatusOK {
			t.Errorf("span %+v did not finish OK", s)
		}
	}
}

// The registry's series are looked up, never built, once they exist: arming
// it adds exactly the request's record to what a 1 KB write allocates.
func TestArmedRegistryAddsOneAllocPerRequest(t *testing.T) {
	perWrite := func(tel telemetry.Sinks) float64 {
		cfg := bench.DefaultConfig()
		cfg.Tel = tel
		pl := bench.NewPlatform(cfg)
		var allocs float64
		err := pl.Run(func(p *sim.Proc) error {
			tgt, err := pl.RawTarget(p, bench.BackendNeSC, 1024)
			if err != nil {
				return err
			}
			var werr error
			write := func() {
				if err := tgt.WriteAt(p, 0, 1024); err != nil {
					werr = err
				}
			}
			for i := 0; i < 8; i++ {
				write() // warm the BTLB, every free list and every series
			}
			allocs = testing.AllocsPerRun(200, write)
			return werr
		})
		if err != nil {
			t.Fatal(err)
		}
		return allocs
	}
	off, on := perWrite(telemetry.Sinks{}), perWrite(telemetry.Sinks{Metrics: metrics.New()})
	if on != off+1 {
		t.Errorf("a 1 KB write allocates %v times with the registry armed, %v without: want one more", on, off)
	}
}
