package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"nesc/internal/slo"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json is
// generated from these tables (-print-benchmark-json) and the smoke test
// checks the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// virtual marks metrics on the simulated clock: the same seed must give
	// exactly the same value.
	virtual bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the costs a user of the system sees. A bound is the share of
// the parent's median by which a metric may worsen before a change is
// rejected. Host time on the baseline box wanders by about a tenth between
// runs whatever their length (benchmarks/README.md has the table), so
// wall_s, cpu_s and setup_s carry the widest bound the contract allows. The
// other bounds are at least three times what ten seeds differ by on any
// workload: virtual-clock metrics repeat exactly for a seed, and allocation
// counts nearly so.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "allocs_per_op", Unit: "1/op", Better: lower, Bound: 0.02},
	{Name: "alloc_kb_per_op", Unit: "KB/op", Better: lower, Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.10},
	{Name: "sim_us_per_op", Unit: "us", Better: lower, Bound: 0.01, virtual: true},
	{Name: "sim_mb_per_s", Unit: "MB/s", Better: higher, Bound: 0.01, virtual: true},
	{Name: "sim_speedup_vs_virtio", Unit: "x", Better: higher, Bound: 0.02, virtual: true},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// layers in report order; every layer but harness has a host_self_share.
var profiledLayers = []string{
	"sim", "runtime", "ring", "hostmem", "extent", "blockdev", "pcie", "core", "guest",
	"virtio", "hypervisor", "extfs", "fabric", "cas", "fault", "telemetry",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "sim_p50_us", Unit: "us", Better: lower, virtual: true},
		{Name: "sim_p99_us", Unit: "us", Better: lower, virtual: true},
		{Name: "sim_p99_samples_beyond", Unit: "count", Better: higher, virtual: true},

		{Name: "sim.wall_ns_per_sim_us", Unit: "ns/us", Better: lower},
		{Name: "sim.sys_cpu_frac", Unit: "frac", Better: lower},
		{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},

		{Name: "blockdev.medium_bytes_per_user_byte", Unit: "B/B", Better: lower, virtual: true},
		{Name: "blockdev.seg_medium_us", Unit: "us", Better: lower, virtual: true},
		{Name: "pcie.dma_bytes_per_user_byte", Unit: "B/B", Better: lower, virtual: true},

		{Name: "core.btlb_hit_rate", Unit: "frac", Better: higher, virtual: true},
		{Name: "core.walk_node_reads_per_op", Unit: "1/op", Better: lower, virtual: true},
		{Name: "core.misses_per_op", Unit: "1/op", Better: lower, virtual: true},
		{Name: "core.chunks_per_op", Unit: "1/op", Better: lower, virtual: true},
		{Name: "core.cow_faults_per_op", Unit: "1/op", Better: lower, virtual: true},
		{Name: "core.btlb_invalidations", Unit: "count", Better: lower, virtual: true},
		{Name: "core.shadow_batches_per_op", Unit: "1/op", Better: lower, virtual: true},
		{Name: "core.drr_fairness", Unit: "frac", Better: higher, virtual: true},
		{Name: "core.admit_rejects", Unit: "count", Better: lower, virtual: true},
		{Name: "core.seg_fetch_us", Unit: "us", Better: lower, virtual: true},
		{Name: "core.seg_queue_wait_us", Unit: "us", Better: lower, virtual: true},
		{Name: "core.seg_translate_us", Unit: "us", Better: lower, virtual: true},
		{Name: "core.seg_dtu_wait_us", Unit: "us", Better: lower, virtual: true},
		{Name: "core.seg_retry_us", Unit: "us", Better: lower, virtual: true},
		{Name: "core.seg_admission_us", Unit: "us", Better: lower, virtual: true},
		{Name: "core.seg_other_us", Unit: "us", Better: lower, virtual: true},
		{Name: "core.translate_walk_p50_ns", Unit: "ns", Better: lower, virtual: true},
		{Name: "core.translate_miss_p50_ns", Unit: "ns", Better: lower, virtual: true},

		{Name: "guest.doorbells_skipped_frac", Unit: "frac", Better: higher, virtual: true},
		{Name: "guest.polled_cpls", Unit: "count", Better: lower, virtual: true},
		{Name: "guest.resubmits", Unit: "count", Better: lower, virtual: true},
		{Name: "guest.timeouts", Unit: "count", Better: lower, virtual: true},

		{Name: "virtio.sim_us_per_op", Unit: "us", Better: lower, virtual: true},
		{Name: "virtio.wall_us_per_op", Unit: "us", Better: lower},

		{Name: "hypervisor.miss_services_per_op", Unit: "1/op", Better: lower, virtual: true},
		{Name: "hypervisor.cow_breaks_per_op", Unit: "1/op", Better: lower, virtual: true},
		{Name: "hypervisor.miss_service_sim_us", Unit: "us", Better: lower, virtual: true},
		{Name: "hypervisor.vm_start_ms", Unit: "ms", Better: lower},
		{Name: "hypervisor.snapshot_ms", Unit: "ms", Better: lower},

		{Name: "fabric.mirrored_writes_frac", Unit: "frac", Better: higher, virtual: true},
		{Name: "fabric.degraded_writes", Unit: "count", Better: lower, virtual: true},
		{Name: "fabric.read_retries", Unit: "count", Better: lower, virtual: true},
		{Name: "fabric.seg_fabric_wait_us", Unit: "us", Better: lower, virtual: true},

		{Name: "cas.cache_hit_rate", Unit: "frac", Better: higher, virtual: true},
		{Name: "cas.remote_fetches_per_first_touch", Unit: "1/op", Better: lower, virtual: true},
		{Name: "cas.materializations", Unit: "count", Better: lower, virtual: true},
		{Name: "cas.dedup_ratio", Unit: "x", Better: higher, virtual: true},
		{Name: "cas.fork_ms", Unit: "ms", Better: lower},

		{Name: "telemetry.trace_overhead_frac", Unit: "frac", Better: lower},
		{Name: "harness.verify_frac", Unit: "frac", Better: lower},
	}
	for _, p := range probes {
		unit := "ns"
		if p.us {
			unit = "us"
		}
		defs = append(defs, metricDef{Name: p.name + "_" + unit, Unit: unit, Better: lower})
		if p.allocs {
			defs = append(defs, metricDef{Name: p.name + "_allocs", Unit: "1/op", Better: lower})
		}
	}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{Name: l + ".host_self_share", Unit: "frac", Better: lower})
	}
	return defs
}

// endToEndValues are the metrics of one untraced pass plus its extra set-up
// samples.
func endToEndValues(r *pass, setups []time.Duration) map[string]float64 {
	ops := float64(len(r.lat))
	var sum int64
	for _, l := range r.lat {
		sum += l
	}
	slices.Sort(setups)
	m := r.measured
	return map[string]float64{
		"wall_s":                m.wall.Seconds(),
		"cpu_s":                 (m.user + m.sys).Seconds(),
		"allocs_per_op":         float64(m.mallocs) / ops,
		"alloc_kb_per_op":       float64(m.bytes) / 1024 / ops,
		"peak_rss_mb":           float64(r.peakRSS) / 1024,
		"sim_us_per_op":         float64(sum) / 1e3 / ops,
		"sim_mb_per_s":          float64(r.userBytes) / 1e6 / r.simElapsed.Seconds(),
		"sim_speedup_vs_virtio": ratio(float64(r.refElapsed), float64(r.simPrefix)),
		"setup_s":               setups[len(setups)/2].Seconds(),
	}
}

// perLayerValues joins the two half-length passes of a traced run: host-clock
// readings come from the untraced pass u, counters, segments and histograms
// from the traced pass t.
func perLayerValues(u, t *pass, shares, probed map[string]float64) map[string]float64 {
	ops := float64(len(t.lat))
	b, a := t.before, t.after
	sb, sa := b.stats, a.stats
	reg := func(name string) float64 { return a.reg.values[name] - b.reg.values[name] }
	um := u.measured
	beyond := len(t.lat) - int(float64(len(t.lat))*0.99+0.999999)

	v := map[string]float64{
		"sim_p50_us":             float64(percentile(t.lat, 0.50)) / 1e3,
		"sim_p99_us":             float64(percentile(t.lat, 0.99)) / 1e3,
		"sim_p99_samples_beyond": float64(beyond),

		"sim.wall_ns_per_sim_us": ratio(float64(um.wall), float64(u.simElapsed)/1e3),
		"sim.sys_cpu_frac":       ratio(float64(um.sys), float64(um.user+um.sys)),
		"runtime.gc_cycles":      float64(um.gcCycles),
		"runtime.gc_pause_ms":    float64(um.gcPause) / 1e6,

		"blockdev.medium_bytes_per_user_byte": ratio(float64(sa.MediumReadBytes+sa.MediumWriteBytes-sb.MediumReadBytes-sb.MediumWriteBytes), float64(t.userBytes)),
		"pcie.dma_bytes_per_user_byte":        ratio(float64(sa.DMAReadBytes+sa.DMAWriteBytes-sb.DMAReadBytes-sb.DMAWriteBytes), float64(t.userBytes)),

		"core.btlb_hit_rate":          ratio(float64(sa.BTLBHits-sb.BTLBHits), float64(sa.BTLBHits+sa.BTLBMisses-sb.BTLBHits-sb.BTLBMisses)),
		"core.walk_node_reads_per_op": float64(sa.WalkNodeReads-sb.WalkNodeReads) / ops,
		"core.misses_per_op":          reg("nesc_device_misses_total") / ops,
		"core.chunks_per_op":          reg("nesc_device_chunks_done_total") / ops,
		"core.cow_faults_per_op":      float64(sa.CowFaults-sb.CowFaults) / ops,
		"core.btlb_invalidations":     float64(sa.BTLBInvalidations - sb.BTLBInvalidations),
		"core.shadow_batches_per_op":  reg("nesc_device_shadow_batches_total") / ops,
		"core.drr_fairness":           a.reg.values["nesc_device_drr_fairness"],
		"core.admit_rejects":          float64(sa.AdmitRejects - sb.AdmitRejects),
		"core.translate_walk_p50_ns":  a.reg.hists["nesc_pipeline_translate_walk_ns"].p50(),
		"core.translate_miss_p50_ns":  a.reg.hists["nesc_pipeline_translate_miss_ns"].p50(),

		"guest.doorbells_skipped_frac": ratio(reg("nesc_driver_doorbells_skipped_total"), reg("nesc_driver_queue_submitted_total")),
		"guest.polled_cpls":            float64(sa.PolledCompletions - sb.PolledCompletions),
		"guest.resubmits":              float64(sa.DriverResubmits - sb.DriverResubmits),
		"guest.timeouts":               float64(sa.DriverTimeouts - sb.DriverTimeouts),

		"virtio.sim_us_per_op":  ratio(float64(u.refElapsed)/1e3, float64(u.prefixOps)),
		"virtio.wall_us_per_op": ratio(float64(u.refWall)/1e3, float64(u.prefixOps)),

		"hypervisor.miss_services_per_op": float64(sa.MissInterrupts-sb.MissInterrupts) / ops,
		"hypervisor.cow_breaks_per_op":    float64(sa.CowBreaks-sb.CowBreaks) / ops,
		"hypervisor.miss_service_sim_us":  missServiceUs(a.reg),
		"hypervisor.vm_start_ms":          stepTime{total: t.steps["start_vm"].total + t.steps["start_fork_vm"].total, n: t.steps["start_vm"].n + t.steps["start_fork_vm"].n}.meanMs(),
		"hypervisor.snapshot_ms":          t.steps["snapshot"].meanMs(),

		"fabric.mirrored_writes_frac": ratio(float64(a.fabric.MirroredWrites-b.fabric.MirroredWrites),
			float64(a.fabric.MirroredWrites+a.fabric.DegradedWrites+a.fabric.WriteFailures-b.fabric.MirroredWrites-b.fabric.DegradedWrites-b.fabric.WriteFailures)),
		"fabric.degraded_writes": float64(a.fabric.DegradedWrites - b.fabric.DegradedWrites),
		"fabric.read_retries":    float64(a.fabric.ReadRetries - b.fabric.ReadRetries),

		"cas.cache_hit_rate":                 ratio(float64(sa.CASCacheHits-sb.CASCacheHits), float64(sa.CASCacheHits+sa.CASCacheMisses-sb.CASCacheHits-sb.CASCacheMisses)),
		"cas.remote_fetches_per_first_touch": ratio(float64(sa.CASRemoteFetches-sb.CASRemoteFetches), float64(sa.CASFetchMisses-sb.CASFetchMisses)),
		"cas.materializations":               float64(sa.CASMaterializations - sb.CASMaterializations),
		"cas.dedup_ratio":                    t.sim.CASDedupRatio(),
		"cas.fork_ms":                        t.steps["fork"].meanMs(),

		"telemetry.trace_overhead_frac": ratio(float64(t.measured.wall), float64(um.wall)) - 1,
		"harness.verify_frac":           ratio(float64(u.harness), float64(um.wall)),
	}

	// Attribution rows: mean virtual microseconds per request, by segment,
	// over the requests the measured phase completed.
	var reqs int64
	var segs [slo.NumSegments]int64
	for _, row := range a.rows {
		reqs += row.Requests
		for i, ns := range row.SegNs {
			segs[i] += ns
		}
	}
	for _, row := range b.rows {
		reqs -= row.Requests
		for i, ns := range row.SegNs {
			segs[i] -= ns
		}
	}
	for i, name := range map[int]string{
		slo.SegFetch: "core.seg_fetch_us", slo.SegQueue: "core.seg_queue_wait_us",
		slo.SegTranslate: "core.seg_translate_us", slo.SegDTUWait: "core.seg_dtu_wait_us",
		slo.SegRetry: "core.seg_retry_us", slo.SegAdmission: "core.seg_admission_us",
		slo.SegOther: "core.seg_other_us", slo.SegMedium: "blockdev.seg_medium_us",
		slo.SegFabricWait: "fabric.seg_fabric_wait_us",
	} {
		v[name] = ratio(float64(segs[i])/1e3, float64(reqs))
	}
	for k, x := range probed {
		v[k] = x
	}
	for _, l := range profiledLayers {
		if shares != nil {
			v[l+".host_self_share"] = shares[l]
		}
	}
	return v
}

// missServiceUs is the mean virtual time the device saw a hypervisor-serviced
// translation take (lazy-allocation and fetch misses plus CoW breaks).
func missServiceUs(reg registry) float64 {
	var n int64
	var sum float64
	for _, name := range []string{"nesc_pipeline_translate_miss_ns", "nesc_pipeline_translate_cow_ns"} {
		if h := reg.hists[name]; h != nil {
			n += h.count
			sum += h.sum
		}
	}
	return ratio(sum/1e3, float64(n))
}

// result is the one JSON object a child prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// encodeResult renders values against defs. A metric that is missing or not
// finite is an error: the contract wants every name, every time.
func encodeResult(defs []metricDef, values map[string]float64, correct bool, attempted, failed int64) ([]byte, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		x, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, x)
		}
		res.Metrics[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	return json.Marshal(res)
}
