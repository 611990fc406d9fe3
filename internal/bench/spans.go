package bench

import (
	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/trace"
	"nesc/internal/workload"
)

// Spans is the telemetry showcase experiment: it runs a write-then-read
// workload against a sparse image on a directly assigned VF with the metrics
// registry and span recorder attached, then reads the per-stage latency
// histograms back out of the registry. The sparse image makes the write pass
// take hypervisor-serviced translation misses (lazy allocation), the
// interleaved walks populate the BTLB, and the read pass then hits it — so
// one table shows the BTLB-hit / tree-walk / miss latency separation the
// span machinery exists to expose.
func Spans(cfg Config) ([]*stats.Table, error) {
	reg := metrics.New()
	cfg.Tel.Metrics, cfg.Tel.Spans = reg, trace.NewSpanRecorder(4096)
	const fileBlocks = 4096 // 4 MB sparse image
	_, err := runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
		_, tgt, err := pl.directVM(p, "spans", "/spans.img", 1, fileBlocks, true)
		if err != nil {
			return err
		}
		total := int64(fileBlocks) * int64(pl.Cfg.Core.BlockSize)
		if _, err := (workload.ParallelDD{BlockBytes: 4096, TotalBytes: total, QD: 4, Write: true}).Run(p, tgt); err != nil {
			return err
		}
		_, err = (workload.ParallelDD{BlockBytes: 4096, TotalBytes: total, QD: 4}).Run(p, tgt)
		return err
	})
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable("Span-derived per-stage latency (sparse image, 4KB x QD4, write pass then read pass)",
		"stage", "us", "write mean", "write p99", "read mean", "read p99")
	stages := []struct {
		row, family string
	}{
		{"descriptor fetch", "nesc_pipeline_fetch_ns"},
		{"vLBA queue wait", "nesc_pipeline_queue_wait_ns"},
		{"translate (BTLB hit)", "nesc_pipeline_translate_hit_ns"},
		{"translate (tree walk)", "nesc_pipeline_translate_walk_ns"},
		{"translate (hyp. miss)", "nesc_pipeline_translate_miss_ns"},
		{"pLBA queue wait", "nesc_pipeline_dtu_wait_ns"},
		{"DMA transfer", "nesc_pipeline_transfer_ns"},
		{"end-to-end request", "nesc_request_ns"},
	}
	// The workload drives VF 1 on queue 0; read the exact series back.
	for _, st := range stages {
		for _, op := range []string{"write", "read"} {
			h := reg.Histogram(st.family, "", metrics.VFQOp(1, 0, op))
			if h.Count() == 0 {
				continue // e.g. no misses on the read pass
			}
			tbl.Set(st.row, op+" mean", h.Mean()/1000)
			tbl.Set(st.row, op+" p99", h.Quantile(0.99)/1000)
		}
	}
	tbl.Note("the write pass faults every block in through the hypervisor (lazy allocation); the read pass rides the warmed BTLB")
	tbl.Note("p99 cells are log2-histogram estimates (geometric bucket midpoint)")
	return []*stats.Table{tbl}, nil
}
