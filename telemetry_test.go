package nesc

// Telemetry acceptance tests: the Prometheus exporter must emit parseable
// text exposition format, the Chrome trace exporter must emit loadable
// trace-event JSON, and — the cardinal rule — instrumentation must be
// virtual-time-neutral: enabling it cannot move a single event, so every
// counter and the final clock match an uninstrumented run exactly. The
// golden test at the bottom extends that guarantee to the full experiment
// suite: an instrumentation-off run reproduces results/all_experiments.txt
// byte for byte.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"nesc/internal/bench"
	"nesc/internal/metrics"
	"nesc/internal/slo"
)

// telemetryWorkload drives a deterministic mixed workload: a dense image
// (BTLB hits), a sparse image (hypervisor misses via lazy allocation), and a
// read-back pass (warmed-cache hits).
func telemetryWorkload(sim *Simulation) error {
	return sim.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/dense.img", 7, 4<<20, false); err != nil {
			return err
		}
		if err := ctx.CreateImage("/sparse.img", 7, 4<<20, true); err != nil {
			return err
		}
		dense, err := ctx.StartVM("dense", BackendNeSC, "/dense.img", 7)
		if err != nil {
			return err
		}
		sparse, err := ctx.StartVM("sparse", BackendNeSC, "/sparse.img", 7)
		if err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{0x5A}, 64<<10)
		for _, vm := range []*VM{dense, sparse} {
			for off := int64(0); off < 512<<10; off += int64(len(buf)) {
				if err := vm.WriteAt(ctx, buf, off); err != nil {
					return err
				}
			}
			got := make([]byte, len(buf))
			if err := vm.ReadAt(ctx, got, 0); err != nil {
				return err
			}
			if !bytes.Equal(got, buf) {
				return fmt.Errorf("round-trip mismatch")
			}
		}
		return nil
	})
}

var (
	promHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*)( .*)?$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (\S+)$`)
)

// parsePrometheus validates Prometheus text exposition format line by line
// and returns the set of sample metric names (with _bucket/_sum/_count
// suffixes intact) plus the set of TYPE-declared families.
func parsePrometheus(t *testing.T, text string) (samples map[string]int, families map[string]string) {
	t.Helper()
	samples = make(map[string]int)
	families = make(map[string]string)
	typed := ""
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if m := promHelpRe.FindStringSubmatch(line); m != nil {
			continue
		} else if m := promTypeRe.FindStringSubmatch(line); m != nil {
			families[m[1]] = m[2]
			typed = m[1]
			continue
		} else if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: malformed comment %q", i+1, line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		name := m[1]
		if _, err := strconv.ParseFloat(m[len(m)-1], 64); err != nil && m[len(m)-1] != "+Inf" {
			t.Fatalf("line %d: bad value in %q: %v", i+1, line, err)
		}
		// Every sample must follow a TYPE declaration for its family.
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typed != base && typed != name {
			t.Fatalf("line %d: sample %q outside its TYPE block (last TYPE %q)", i+1, name, typed)
		}
		samples[name]++
	}
	return samples, families
}

func TestTelemetryExports(t *testing.T) {
	sim := New(Config{MediumMB: 32, Metrics: true, TraceSpans: 2048, TraceEvents: 64,
		Attribution: true, SLO: &SLOObjective{}, ScoreboardEvents: 64})
	// Function 1 is the dense VM, whose requests all meet the default
	// objective; hold it to one no request can meet.
	sim.SetSLOObjective(1, SLOObjective{Latency: time.Microsecond})
	if err := telemetryWorkload(sim); err != nil {
		t.Fatal(err)
	}

	// --- Prometheus text format ---
	var prom bytes.Buffer
	if err := sim.WriteMetrics(&prom); err != nil {
		t.Fatal(err)
	}
	samples, families := parsePrometheus(t, prom.String())
	if len(samples) == 0 {
		t.Fatal("no samples exported")
	}
	for fam, kind := range map[string]string{
		"nesc_request_ns":                 "histogram",
		"nesc_pipeline_fetch_ns":          "histogram",
		"nesc_pipeline_translate_hit_ns":  "histogram",
		"nesc_pipeline_translate_miss_ns": "histogram",
		"nesc_pipeline_transfer_ns":       "histogram",
		"nesc_device_btlb_hit_rate":       "gauge",
		"nesc_device_reqs_done_total":     "gauge",
		"nesc_hyp_miss_interrupts_total":  "gauge",
		"nesc_fn_inflight":                "gauge",
		"nesc_driver_queue_depth":         "gauge",
		"nesc_medium_write_bytes_total":   "gauge",
		"nesc_requests_total":             "counter",
	} {
		if got, ok := families[fam]; !ok {
			t.Errorf("family %s missing from export", fam)
		} else if got != kind {
			t.Errorf("family %s has type %s, want %s", fam, got, kind)
		}
	}
	// Histograms decompose into _bucket/_sum/_count sample lines.
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if samples["nesc_request_ns"+suffix] == 0 {
			t.Errorf("nesc_request_ns%s samples missing", suffix)
		}
	}
	// The sparse image forces hypervisor-serviced misses; the dense read-back
	// rides the BTLB — both translate outcomes must carry samples.
	for _, fam := range []string{"nesc_pipeline_translate_hit_ns_count", "nesc_pipeline_translate_miss_ns_count"} {
		if samples[fam] == 0 {
			t.Errorf("%s: no samples — hit/miss separation lost", fam)
		}
	}

	// --- JSON snapshot ---
	var snap bytes.Buffer
	if err := sim.WriteMetricsJSON(&snap); err != nil {
		t.Fatal(err)
	}
	var anyJSON any
	if err := json.Unmarshal(snap.Bytes(), &anyJSON); err != nil {
		t.Fatalf("metrics JSON snapshot invalid: %v", err)
	}

	// --- Chrome trace-event JSON ---
	if sim.SpanCount() == 0 {
		t.Fatal("no spans recorded")
	}
	var tj bytes.Buffer
	if err := sim.WriteTraceJSON(&tj); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(tj.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace JSON has no events")
	}
	var meta, slices, hits, misses int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("slice %q has no/negative duration", e.Name)
			}
			if strings.Contains(e.Name, "(hit)") {
				hits++
			}
			if strings.Contains(e.Name, "(miss)") {
				misses++
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if meta == 0 || slices == 0 {
		t.Fatalf("trace JSON missing track metadata (%d) or slices (%d)", meta, slices)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("translate slices lack hit (%d) / miss (%d) tags", hits, misses)
	}

	// --- SLO engine: the override applies to its VF and to no other ---
	for _, st := range sim.SLOStatus() {
		overridden := time.Duration(st.Objective.Latency) == time.Microsecond
		if overridden != (st.VF == 1) {
			t.Errorf("vf %d tracked against a %v objective", st.VF, st.Objective.Latency)
		}
		if st.VF == 1 && (st.Good != 0 || st.Bad == 0 || st.Alerts == 0) {
			t.Errorf("vf 1 under a 1us objective: good=%d bad=%d alerts=%d, want every request bad and an alert", st.Good, st.Bad, st.Alerts)
		}
	}

	// --- attribution: the JSON report is the budget table, and the explainer
	// names what sets the sparse VM's lazily allocated writes apart ---
	rows := sim.AttributionRows()
	var report []map[string]any
	var aj bytes.Buffer
	if err := sim.WriteAttribution(&aj); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(aj.Bytes(), &report); err != nil {
		t.Fatalf("attribution JSON invalid: %v", err)
	}
	if len(rows) == 0 || len(report) != len(rows) {
		t.Errorf("attribution JSON has %d rows, AttributionRows %d", len(report), len(rows))
	}
	if ex, ok := sim.ExplainTail(2, "write"); !ok || ex.Dominant == "" || ex.TailNs <= ex.MedianNs {
		t.Errorf("ExplainTail(2, write) = %v, %v: want a dominant segment and a tail above the median", ex, ok)
	}

	// --- scoreboard: the dump is the retained events, one per line ---
	evs := sim.Anomalies()
	if dump := sim.ScoreboardDump(); len(evs) == 0 || strings.Count(dump, "\n") != len(evs) {
		t.Errorf("Anomalies holds %d events, ScoreboardDump renders:\n%s", len(evs), dump)
	}
	if n := sim.Stats().AnomalyEvents; n != int64(len(evs)) {
		t.Errorf("Stats counts %d anomaly events, the scoreboard retains %d of 64", n, len(evs))
	}

	// --- flight recorder: clean run captures nothing ---
	if n := sim.FlightRecords(); n != 0 {
		t.Errorf("clean run captured %d flight records:\n%s", n, sim.FlightDump())
	}
	if !strings.Contains(sim.FlightDump(), "no records") {
		t.Errorf("FlightDump on a clean run: %q", sim.FlightDump())
	}
}

// startMirror creates one image per device and starts a K=2 mirrored VM
// across devices 0 and 1.
func startMirror(ctx *Ctx) (*VM, error) {
	for d := 0; d < 2; d++ {
		if err := ctx.CreateImageOn(d, "/m.img", 7, 1<<20, false); err != nil {
			return nil, err
		}
	}
	return ctx.StartMirroredVM("m", "/m.img", 7, []int{0, 1}, MirrorConfig{})
}

// mirrorWorkload drives the mirrored VM: every write lands on both legs,
// reads are steered to one.
func mirrorWorkload(sim *Simulation) error {
	return sim.Run(func(ctx *Ctx) error {
		vm, err := startMirror(ctx)
		if err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{0xA5}, 8192)
		for off := int64(0); off < 128<<10; off += int64(len(buf)) {
			if err := vm.WriteAt(ctx, buf, off); err != nil {
				return err
			}
			if err := vm.ReadAt(ctx, buf, off); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestInstrumentationNeutrality runs the same workload bare and with every
// sink armed, on one device and on a two-device mirror; every counter —
// above all the virtual clock — must match.
func TestInstrumentationNeutrality(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(*Simulation) error
	}{
		{"single device", Config{MediumMB: 32}, telemetryWorkload},
		{"two-device mirror", Config{MediumMB: 32, Devices: 2}, mirrorWorkload},
	} {
		bare := New(tc.cfg)
		if err := tc.run(bare); err != nil {
			t.Fatalf("%s, bare: %v", tc.name, err)
		}
		armed := tc.cfg
		armed.Metrics, armed.TraceSpans, armed.TraceEvents = true, 4096, 128
		armed.Attribution, armed.SLO, armed.ScoreboardEvents = true, &SLOObjective{}, 64
		instr := New(armed)
		if err := tc.run(instr); err != nil {
			t.Fatalf("%s, instrumented: %v", tc.name, err)
		}
		// The two observability counters count what the armed sinks saw; they
		// are the one difference allowed.
		b := instr.Stats()
		b.SLOAlerts, b.AnomalyEvents = 0, 0
		if a := bare.Stats(); a != b {
			t.Errorf("%s: instrumentation perturbed the simulation:\nbare:  %+v\ninstr: %+v", tc.name, a, b)
		}
		if a, b := bare.FabricStats(), instr.FabricStats(); a != b {
			t.Errorf("%s: instrumentation perturbed the fabric:\nbare:  %+v\ninstr: %+v", tc.name, a, b)
		}
	}
}

// TestEveryDeviceFeedsTheSinks: the bundle reaches every controller through
// its constructor, so one mirrored write leaves a span, an end-to-end latency
// sample and ring events from each leg's device — not from device 0 alone.
func TestEveryDeviceFeedsTheSinks(t *testing.T) {
	sim := New(Config{MediumMB: 32, Devices: 2, Metrics: true, TraceSpans: 4096, TraceEvents: 4096})
	err := sim.Run(func(ctx *Ctx) error {
		vm, err := startMirror(ctx)
		if err != nil {
			return err
		}
		return vm.WriteAt(ctx, bytes.Repeat([]byte{0x3C}, 4096), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both legs are VF 0 (function 1) of their device.
	spans := map[int]int{}
	for _, s := range sim.tel().Spans.Spans() {
		if s.Fn == 1 && s.Op == "write" {
			spans[s.Dev]++
		}
	}
	events := map[int]int{}
	for _, e := range sim.tel().Events.Events() {
		if e.Fn == 1 {
			events[e.Dev]++
		}
	}
	for dev := 0; dev < 2; dev++ {
		if spans[dev] != 1 || events[dev] == 0 {
			t.Errorf("device %d left %d write spans and %d ring events for the mirrored write, want 1 and some", dev, spans[dev], events[dev])
		}
	}
	if n := sim.tel().Metrics.Histogram("nesc_request_ns", "", metrics.VFQOp(1, 0, "write")).Count(); n != 2 {
		t.Errorf("nesc_request_ns{vf=1,q=0,op=write} holds %d samples, want one per leg", n)
	}
}

// TestCASFetchWaitLandsOnTheTenantsRow: attribution rows are keyed by
// function index (VF idx + 1; 0 is the PF). A cold read through a cas fork on
// VF 0 waits on the remote tier, and that wait belongs to the tenant's row —
// where ExplainTail looks — not to the PF's.
func TestCASFetchWaitLandsOnTheTenantsRow(t *testing.T) {
	sim := New(Config{MediumMB: 32, CAS: true, Attribution: true})
	err := sim.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/golden.img", 7, 64<<10, true); err != nil {
			return err
		}
		if err := ctx.WriteHostFile("/golden.img", bytes.Repeat([]byte{0xC4}, 64<<10), 0); err != nil {
			return err
		}
		if _, err := ctx.SealImage("/golden.img", "golden", 7); err != nil {
			return err
		}
		if err := ctx.ForkImage("golden", "/fork.img", 7); err != nil {
			return err
		}
		vm, err := ctx.StartVM("fork", BackendNeSC, "/fork.img", 7)
		if err != nil {
			return err
		}
		return vm.ReadAt(ctx, make([]byte, 4096), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	tenantWait := int64(0)
	for _, r := range sim.AttributionRows() {
		switch wait := r.SegNs[slo.SegFabricWait]; {
		case r.VF == 1 && r.Op == "read":
			tenantWait = wait
		case r.VF == 0 && wait != 0:
			t.Errorf("the PF's %q row carries %d ns of fabric_wait", r.Op, wait)
		}
	}
	if tenantWait == 0 {
		t.Error("the tenant's {vf=1, read} row carries no fabric_wait for its cold cas read")
	}
}

// TestGoldenExperimentOutputs is the tier-1 guard: an instrumentation-off run
// of the full experiment suite must reproduce results/all_experiments.txt
// byte for byte. Regenerate with:
//
//	go run ./cmd/nescbench -exp all > results/all_experiments.txt
//
// Each experiment is an independent single-threaded simulation, so they run
// as parallel subtests; what is compared is their output in registry order.
func TestGoldenExperimentOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite (~1 min of CPU) skipped in -short mode")
	}
	golden, err := os.ReadFile("results/all_experiments.txt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.DefaultConfig()
	exps := bench.All()
	outs := make([]string, len(exps))
	// The group returns once every parallel subtest in it has finished.
	t.Run("exp", func(t *testing.T) {
		for i, e := range exps {
			t.Run(e.Name, func(t *testing.T) {
				t.Parallel()
				tables, err := e.Run(cfg)
				if err != nil {
					t.Fatalf("experiment %s: %v", e.Name, err)
				}
				outs[i] = bench.Render(tables)
			})
		}
	})
	if t.Failed() || strings.Join(outs, "") == string(golden) {
		return
	}
	// Name the experiment whose output covers the first differing line.
	wantLines := strings.Split(string(golden), "\n")
	line := 0
	for i, out := range outs {
		for _, g := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
			w := "<end of file>"
			if line < len(wantLines) {
				w = wantLines[line]
			}
			if g != w {
				t.Fatalf("experiment %s drifted from results/all_experiments.txt at line %d:\n got: %q\nwant: %q\n(regenerate the golden file only for intentional output changes)",
					exps[i].Name, line+1, g, w)
			}
			line++
		}
	}
	t.Fatalf("results/all_experiments.txt has lines past the last experiment's output (from line %d)", line+1)
}
