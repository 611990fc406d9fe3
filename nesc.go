// Package nesc is a full-system simulation of NeSC, the self-virtualizing
// nested storage controller of Gottesman & Etsion (MICRO 2016).
//
// A Simulation assembles the complete platform — host memory, a PCIe fabric,
// the storage medium, the NeSC controller (physical function + virtual
// functions, per-VF extent trees, BTLB, out-of-band PF channel), and a
// QEMU/KVM-style hypervisor with an extent filesystem on the physical
// device. Guest VMs attach to virtual disks through any of the paper's three
// storage virtualization methods: direct assignment of a NeSC VF,
// virtio-blk, or full device emulation.
//
// Everything runs in deterministic virtual time on a discrete-event engine;
// data really moves (a byte written through a VF lands on the medium block
// the file's extent tree maps it to), so both performance and isolation
// properties are observable.
//
// # Quick start
//
//	sim := nesc.New(nesc.DefaultConfig())
//	err := sim.Run(func(ctx *nesc.Ctx) error {
//	    if err := ctx.CreateImage("/tenant.img", 100, 16<<20, false); err != nil {
//	        return err
//	    }
//	    vm, err := ctx.StartVM("tenant", nesc.BackendNeSC, "/tenant.img", 100)
//	    if err != nil {
//	        return err
//	    }
//	    return vm.WriteAt(ctx, []byte("hello"), 0)
//	})
//
// The experiment harness that regenerates the paper's tables and figures is
// exposed through Experiments and RunExperiment, and as the nescbench
// command.
package nesc

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"

	"nesc/internal/bench"
	"nesc/internal/blockdev"
	"nesc/internal/extfs"
	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/hypervisor"
	"nesc/internal/metrics"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/telemetry"
	"nesc/internal/trace"
)

// Backend selects a storage virtualization method (paper Fig. 1).
type Backend string

// The three methods the paper compares.
const (
	BackendNeSC      Backend = "nesc"      // direct assignment of a NeSC VF
	BackendVirtio    Backend = "virtio"    // paravirtual virtio-blk
	BackendEmulation Backend = "emulation" // full device emulation
)

// Config sets the coarse platform knobs. Zero values take defaults; the
// full low-level cost model lives in the internal packages and is calibrated
// against the paper (see DESIGN.md and EXPERIMENTS.md).
type Config struct {
	// MediumMB is the storage medium size in MiB (default 128; the paper's
	// prototype carries 1024).
	MediumMB int
	// NumVFs is the maximum virtual-function count (default 64, as the
	// prototype; at most 1024, the VFs the PF's miss-pending banks can
	// report — New panics above it).
	NumVFs int
	// UseIOMMU enables DMA remapping; off (the prototype's mode), guests
	// bounce through trampoline buffers.
	UseIOMMU bool
	// HostJournal selects the host filesystem journal mode:
	// "none", "metadata" (default), or "full".
	HostJournal string
	// TraceEvents, when positive, keeps a ring of that many recent device
	// events (see Simulation.TraceDump).
	TraceEvents int
	// Metrics enables the platform metrics registry: per-stage latency
	// histograms keyed {vf, queue, op} fed by every device of the fleet, one
	// gauge family per platform counter (the same declaration Stats is
	// filled from, so the two always agree), and derived gauges (BTLB hit
	// rate, queue depths, DRR fairness, scrub progress). Export with
	// WriteMetrics (Prometheus text) or WriteMetricsJSON. Instrumentation
	// only reads the virtual clock, so results are byte-identical with it
	// on or off.
	Metrics bool
	// TraceSpans, when positive, records the last N request-scoped spans —
	// each request's timestamped walk through fetch, translate (BTLB
	// hit/walk/miss), transfer, and completion. Export with WriteTraceJSON
	// as a Chrome trace-event file loadable in Perfetto.
	TraceSpans int
	// Fault, when set, arms a seeded deterministic fault injector across the
	// medium, the PCIe fabric, and the hypervisor miss handler. The same plan
	// (same seed) always produces the identical fault sequence.
	Fault *FaultPlan
	// DriverTimeout bounds each ring-driver request attempt: on expiry the
	// driver polls the completion ring (recovering lost interrupts) and then
	// resubmits with exponential backoff, up to DriverRetryMax resubmissions
	// before surfacing ErrTimeout. Zero disables timeout recovery and
	// preserves the fault-free event schedule exactly.
	DriverTimeout time.Duration
	// DriverRetryMax is the per-request resubmission budget.
	DriverRetryMax int
	// QueuesPerVF sets how many queue pairs each function exposes (default
	// 1, the paper's layout). Guests with a directly assigned VF run one
	// thin ring driver per queue behind a multi-queue mux; the device
	// round-robins fetch bandwidth across a function's queues underneath
	// the inter-VF QoS multiplexer.
	QueuesPerVF int
	// Scrub runs the hypervisor's background scrubber for the whole
	// simulation: paced verify passes over every device of the fleet in
	// turn, each through its own PF, that guard-check every block and
	// rewrite-to-repair latent or corrupt sectors. Verify traffic is serviced only when the device is otherwise
	// idle, so foreground latency is unaffected.
	Scrub bool
	// ScrubInterval paces the scrubber (default 200µs between requests).
	ScrubInterval time.Duration
	// DisableGuards turns off per-block guard-tag verification on every
	// device's medium (integrity-ablation knob). Corruption then flows past the device
	// undetected except by end-to-end PI.
	DisableGuards bool
	// Devices sizes the NeSC fleet (default 1). Extra devices each carry
	// their own medium and controller on the shared PCIe fabric; mirrored
	// VMs (StartMirroredVM) replicate across them and legs migrate between
	// them (VM.Migrate). With Devices <= 1 the platform is byte-identical
	// to pre-fleet builds.
	Devices int

	// Attribution enables causal request attribution: the time each
	// pipeline stage reports for a request (the same stage calls that feed
	// spans and histograms), plus what drivers and fabric clients waited
	// outside the device, folds into a per-{vf,op} latency budget table —
	// queue-wait / translate / dtu-wait / medium / fabric-wait / retry /
	// admission shares — with a p99 explainer that names the component
	// dominating tail requests. Export with WriteAttribution; per-row
	// totals also land in the metrics registry when Config.Metrics is on.
	// Attribution only reads the virtual clock: results are byte-identical
	// with it on or off.
	Attribution bool
	// SLO, when set, declares a default per-tenant service-level objective
	// every direct-assigned VF is tracked against: error-budget accounting
	// in virtual time plus multi-window burn-rate alerts that fire as
	// structured scoreboard events (override per VF with SetSLOObjective).
	// Nil disables the SLO engine entirely.
	SLO *SLOObjective
	// ScoreboardEvents, when positive, keeps a bounded ring of that many
	// structured anomaly events — SLO burns, budget exhaustions, detector
	// trips, quarantines, deadline expirations, admission rejects, FLRs,
	// request errors — cross-linked by request id to flight-recorder dumps.
	// Inspect with Anomalies, ScoreboardDump, or the nescctl -top snapshot.
	ScoreboardEvents int

	// CAS enables the content-addressed block tier: SealImage hashes an
	// image's blocks into a fleet-shared refcounted chunk store (a simulated
	// remote object tier with its own latency/bandwidth cost model and fault
	// sites), deduplicating against everything already sealed; ForkImage /
	// ForkImageOn clone a sealed image onto any fleet host as a metadata-only
	// copy whose chunks materialize lazily — on first guest touch — through
	// the device's translation-miss path, served from a per-device LRU chunk
	// cache or the remote tier. Off (the default), the platform is
	// byte-identical to pre-cas builds.
	CAS bool
	// CASCacheChunks sizes each device's local chunk cache in chunks
	// (default 64; requires CAS).
	CASCacheChunks int
}

// SLOObjective declares one tenant's service-level objective. Zero fields
// take the engine defaults (500µs target latency, 99% goal, 200µs/1ms
// alert windows, burn threshold 4, 8-sample floor).
type SLOObjective struct {
	// Latency is the per-request target: a request slower than this (or
	// failed) burns error budget.
	Latency time.Duration
	// Goal is the fraction of requests that must meet the target (0.99 =
	// "99% of requests under Latency").
	Goal float64
	// ShortWindow / LongWindow are the two burn-rate alert windows; an
	// alert fires only when BOTH windows burn above BurnThreshold.
	ShortWindow, LongWindow time.Duration
	// BurnThreshold is the burn-rate multiple (1 = exactly consuming budget
	// at the sustainable rate) both windows must exceed to fire.
	BurnThreshold float64
	// MinSamples is the short-window sample floor before alerts can fire.
	MinSamples int64
}

func (o *SLOObjective) internal() slo.Objective {
	if o == nil {
		return slo.DefaultObjective()
	}
	return slo.Objective{
		Latency:       sim.Time(o.Latency),
		Goal:          o.Goal,
		ShortWindow:   sim.Time(o.ShortWindow),
		LongWindow:    sim.Time(o.LongWindow),
		BurnThreshold: o.BurnThreshold,
		MinSamples:    o.MinSamples,
	}
}

// Fault-injection vocabulary, re-exported from the internal engine so plans
// can be written against the public API alone.
type (
	// FaultPlan is a complete, reproducible fault schedule.
	FaultPlan = fault.Plan
	// FaultSiteParams configures one injection site.
	FaultSiteParams = fault.SiteParams
	// FaultSite identifies one injection point.
	FaultSite = fault.Site
)

// Sentinel errors a guest I/O call can surface under fault injection.
var (
	// ErrTimeout reports a request that got no completion within the
	// driver's retry budget.
	ErrTimeout = guest.ErrTimeout
	// ErrReset reports a request aborted by a function-level reset.
	ErrReset = guest.ErrReset
	// ErrIntegrity reports a guard-tag mismatch that survived every retry —
	// detected corruption is never returned as clean data.
	ErrIntegrity = ring.ErrIntegrity
	// ErrBusy reports a request the device's admission control fast-failed
	// on every attempt (retryable: nothing was executed).
	ErrBusy = ring.ErrBusy
)

// FaultDegradation is a persistent fail-slow profile: a device whose
// operations still succeed but run chronically late (sustained slowdown
// factor and/or flat extra latency, optionally ramping in). Attach profiles
// to FaultPlan.Degradations or inject at runtime with Ctx.Degrade.
type FaultDegradation = fault.Degradation

// The injection sites.
const (
	FaultMediumRead  = fault.MediumRead  // transient medium read errors
	FaultMediumWrite = fault.MediumWrite // transient medium write errors
	FaultDMARead     = fault.DMARead     // device DMA reads rejected on the wire
	FaultDMAWrite    = fault.DMAWrite    // device DMA writes rejected on the wire
	FaultMSI         = fault.MSI         // interrupts dropped or delayed
	FaultMissHandler = fault.MissHandler // hypervisor lazy allocation fails

	// Silent-corruption sites: the operation succeeds but its payload is
	// bit-flipped, so only guard tags / PI can catch it.
	FaultMediumCorruptRead  = fault.MediumCorruptRead  // read returns flipped bytes (transient)
	FaultMediumCorruptWrite = fault.MediumCorruptWrite // write latches its sector corrupt
	FaultDMACorrupt         = fault.DMACorrupt         // payload flipped on the DMA path

	// Remote-tier sites of the content-addressed store (Config.CAS).
	FaultRemoteFetch = fault.RemoteFetch // chunk GETs fail transiently or run late
	FaultRemoteStore = fault.RemoteStore // chunk PUTs retry (idempotent) or run late
)

// DefaultConfig returns the calibrated platform.
func DefaultConfig() Config {
	return Config{MediumMB: 128, NumVFs: 64, HostJournal: "metadata"}
}

// Simulation is one assembled platform.
type Simulation struct {
	pl  *bench.Platform
	cfg Config
}

// tel is the telemetry bundle the platform was built with; every export
// below reads one of its sinks.
func (s *Simulation) tel() telemetry.Sinks { return s.pl.Cfg.Tel }

// New assembles a platform. The hypervisor is not booted until Run.
func New(cfg Config) *Simulation { return newSimulation(cfg, nil) }

// newSimulation assembles a platform, optionally adopting the surviving
// store of a crashed one (seed non-nil ⇒ Run remounts instead of formats).
func newSimulation(cfg Config, seed *blockdev.Store) *Simulation {
	def := DefaultConfig()
	if cfg.MediumMB <= 0 {
		cfg.MediumMB = def.MediumMB
	}
	if cfg.NumVFs <= 0 {
		cfg.NumVFs = def.NumVFs
	}
	bcfg := bench.DefaultConfig()
	bcfg.MediumBlocks = int64(cfg.MediumMB) << 10 // MiB -> 1KB blocks
	bcfg.Core.NumVFs = cfg.NumVFs
	if cfg.QueuesPerVF > 0 {
		bcfg.Core.QueuesPerVF = cfg.QueuesPerVF
	}
	bcfg.Hyp.UseIOMMU = cfg.UseIOMMU
	bcfg.Hyp.Ring.Timeout = sim.Time(cfg.DriverTimeout)
	bcfg.Hyp.Ring.RetryMax = cfg.DriverRetryMax
	bcfg.Fault = cfg.Fault
	bcfg.NumDevices = cfg.Devices
	bcfg.CAS = cfg.CAS
	bcfg.CASCacheChunks = cfg.CASCacheChunks
	bcfg.SeedStore = seed
	bcfg.MountExisting = seed != nil
	switch cfg.HostJournal {
	case "", "metadata":
		bcfg.HostFS.Mode = extfs.JournalMetadata
	case "none":
		bcfg.HostFS.Mode = extfs.JournalNone
	case "full":
		bcfg.HostFS.Mode = extfs.JournalFull
	default:
		panic(fmt.Sprintf("nesc: unknown journal mode %q", cfg.HostJournal))
	}
	// One bundle of sinks, each armed from the config on its own and handed
	// to every layer through the platform's constructors.
	var tel telemetry.Sinks
	if cfg.TraceEvents > 0 {
		tel.Events = trace.NewRing(cfg.TraceEvents)
	}
	if cfg.TraceSpans > 0 {
		tel.Spans = trace.NewSpanRecorder(cfg.TraceSpans)
	}
	if cfg.Metrics {
		tel.Metrics = metrics.New()
	}
	if cfg.ScoreboardEvents > 0 {
		tel.Board = slo.NewScoreboard(cfg.ScoreboardEvents)
	}
	if cfg.Attribution {
		tel.Attrib = slo.NewAttributor(1024)
	}
	if cfg.SLO != nil {
		tel.SLO = slo.NewEngine(cfg.SLO.internal())
	}
	bcfg.Tel = tel
	s := &Simulation{pl: bench.NewPlatform(bcfg), cfg: cfg}
	if cfg.DisableGuards {
		for _, d := range s.pl.Hyp.Devices() {
			d.Ctl.Medium.SetGuardCheck(false)
		}
	}
	return s
}

// TraceDump renders the retained device events (requires Config.TraceEvents
// > 0), oldest first.
func (s *Simulation) TraceDump() string {
	var b strings.Builder
	if err := s.tel().Events.Dump(&b); err != nil {
		return "trace: " + err.Error()
	}
	return b.String()
}

// TraceDumpVF renders the retained device events of one function (0 = PF,
// 1.. = VFs), oldest first — a single tenant's view of an interleaved
// multi-tenant trace. Requires Config.TraceEvents > 0.
func (s *Simulation) TraceDumpVF(fn int) string {
	var b strings.Builder
	if err := s.tel().Events.DumpIf(&b, func(e trace.Event) bool { return e.Fn == fn }); err != nil {
		return "trace: " + err.Error()
	}
	return b.String()
}

// WriteMetrics exports the metrics registry in Prometheus text exposition
// format (requires Config.Metrics; no-op otherwise).
func (s *Simulation) WriteMetrics(w io.Writer) error { return s.tel().Metrics.WritePrometheus(w) }

// WriteMetricsJSON exports the metrics registry as a JSON snapshot
// (requires Config.Metrics; writes "[]" otherwise).
func (s *Simulation) WriteMetricsJSON(w io.Writer) error { return s.tel().Metrics.WriteJSON(w) }

// WriteTraceJSON exports the recorded request spans as a Chrome trace-event
// JSON document — load it at ui.perfetto.dev or chrome://tracing. One
// "process" track per function, one "thread" track per queue, request slices
// with their pipeline phases nested inside (requires Config.TraceSpans > 0;
// writes an empty but loadable trace otherwise).
func (s *Simulation) WriteTraceJSON(w io.Writer) error { return s.tel().Spans.WriteChromeTrace(w) }

// SpanCount reports how many request spans have been recorded in total.
func (s *Simulation) SpanCount() int64 {
	if s.tel().Spans == nil {
		return 0
	}
	return s.tel().Spans.Total
}

// FlightDump renders every device's flight recorder: for every terminal
// error completion or function-level reset, the event-ring tail and the
// offending request's span captured at the moment of failure. Always armed.
// Devices past 0 appear, under a header, only once they hold a record.
func (s *Simulation) FlightDump() string {
	var b strings.Builder
	for _, d := range s.pl.Hyp.Devices() {
		fr := s.pl.Flight[d.Idx]
		if d.Idx != 0 {
			if fr.Total == 0 {
				continue
			}
			fmt.Fprintf(&b, "--- device %d ---\n", d.Idx)
		}
		if err := fr.Dump(&b); err != nil {
			return "flight: " + err.Error()
		}
	}
	return b.String()
}

// FlightRecords reports how many flight records have been captured across
// the fleet: the sum of every device's flight recorder total.
func (s *Simulation) FlightRecords() int64 {
	var n int64
	for _, fr := range s.pl.Flight {
		n += fr.Total
	}
	return n
}

// Observability-layer views, re-exported from the internal engine so tools
// can be written against the public API alone (the FaultPlan idiom).
type (
	// AttributionRow is one per-{vf,op} latency budget-table row.
	AttributionRow = slo.Row
	// TailExplanation is one row's p99 explainer verdict: the segment whose
	// growth separates tail requests from the median, with request ids for
	// flight-recorder cross-links.
	TailExplanation = slo.Explanation
	// SLOVFStatus is one tracked tenant's live SLO state.
	SLOVFStatus = slo.Status
	// AnomalyEvent is one structured scoreboard event.
	AnomalyEvent = slo.Event
	// AnomalyKind tags an AnomalyEvent.
	AnomalyKind = slo.EventKind
)

// WriteAttribution exports the latency budget table as a JSON report: one
// object per {vf,op} row with per-segment nanosecond totals and shares,
// plus the p99 explainer's verdict (requires Config.Attribution; writes an
// empty array otherwise).
func (s *Simulation) WriteAttribution(w io.Writer) error { return s.tel().Attrib.WriteReport(w) }

// AttributionRows returns the latency budget table, sorted by {vf,op}
// (nil without Config.Attribution).
func (s *Simulation) AttributionRows() []AttributionRow { return s.tel().Attrib.Rows() }

// ExplainTail runs the p99 explainer for one budget-table row: it diffs the
// segment profile of the row's tail requests against its median band and
// names the dominant component. ok is false when the row is unknown or has
// too few profiled requests.
func (s *Simulation) ExplainTail(vf int, op string) (TailExplanation, bool) {
	return s.tel().Attrib.Explain(vf, op)
}

// SetSLOObjective overrides the declared objective for one VF (call before
// the VF completes its first request; requires Config.SLO).
func (s *Simulation) SetSLOObjective(vf int, obj SLOObjective) {
	s.tel().SLO.SetObjective(vf, obj.internal())
}

// SLOStatus reports every tracked tenant's live SLO state, sorted by VF
// (nil without Config.SLO).
func (s *Simulation) SLOStatus() []SLOVFStatus { return s.tel().SLO.Status() }

// Anomalies returns the scoreboard's retained events, oldest first (nil
// without Config.ScoreboardEvents).
func (s *Simulation) Anomalies() []AnomalyEvent { return s.tel().Board.Events() }

// ScoreboardDump renders the retained anomaly events human-readably.
func (s *Simulation) ScoreboardDump() string {
	var b strings.Builder
	if err := s.tel().Board.Dump(&b); err != nil {
		return "scoreboard: " + err.Error()
	}
	return b.String()
}

// WriteTop writes a one-shot health snapshot — virtual time, per-tenant SLO
// state, anomaly-event counts with the most recent events, and each
// budget-table row's tail verdict. It is the nescctl -top view; sections
// whose layer is off are omitted.
func (s *Simulation) WriteTop(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== nesc health snapshot at %v ===\n", time.Duration(s.pl.Eng.Now())); err != nil {
		return err
	}
	if sts := s.tel().SLO.Status(); len(sts) > 0 {
		fmt.Fprintf(w, "\nSLO (goal/budget/burn-short/burn-long/alerts):\n")
		for _, st := range sts {
			state := "ok"
			if st.Alerting {
				state = "ALERTING"
			}
			if st.ExhaustedAt > 0 {
				state = "EXHAUSTED"
			}
			fmt.Fprintf(w, "  vf=%-3d goal=%.3f budget=%5.1f%% burn=%6.2f/%-6.2f alerts=%-3d good=%d bad=%d %s\n",
				st.VF, st.Objective.Goal, 100*st.BudgetConsumed, st.BurnShort, st.BurnLong,
				st.Alerts, st.Good, st.Bad, state)
		}
	}
	if s.tel().Board.Total() > 0 {
		fmt.Fprintf(w, "\nanomaly scoreboard (%d events):\n", s.tel().Board.Total())
		evs := s.tel().Board.Events()
		if len(evs) > 10 {
			evs = evs[len(evs)-10:]
		}
		for _, ev := range evs {
			fmt.Fprintf(w, "  #%-4d %10dus %-16s dev=%d vf=%d req=%d %s\n",
				ev.Seq, int64(ev.At)/1000, ev.Kind.String(), ev.Dev, ev.VF, ev.ReqID, ev.Note)
		}
	}
	if exps := s.tel().Attrib.Explanations(); len(exps) > 0 {
		fmt.Fprintf(w, "\ntail attribution (p99 explainer):\n")
		for _, ex := range exps {
			fmt.Fprintf(w, "  %s\n", ex)
		}
	}
	if n := s.FlightRecords(); n > 0 {
		fmt.Fprintf(w, "\nflight records: %d (nescctl -flight for dumps)\n", n)
	}
	return nil
}

// Run boots the hypervisor and executes fn as the initial host process,
// driving virtual time until the system is quiescent. It may be called once
// per Simulation.
func (s *Simulation) Run(fn func(ctx *Ctx) error) error {
	return s.pl.Run(func(p *sim.Proc) error {
		s.startScrubber()
		err := fn(&Ctx{proc: p, s: s})
		s.pl.Hyp.StopScrubber()
		return err
	})
}

func (s *Simulation) startScrubber() {
	if s.cfg.Scrub {
		s.pl.Hyp.StartScrubber(hypervisor.ScrubConfig{Interval: sim.Time(s.cfg.ScrubInterval)})
	}
}

// ScrubReport summarizes one scrub pass.
type ScrubReport = hypervisor.ScrubReport

// Scrub synchronously verifies every block of every fleet device through
// that device's PF, repairing any guard failures it finds; the report sums
// the fleet.
func (c *Ctx) Scrub() ScrubReport { return c.s.pl.Hyp.ScrubPass(c.proc) }

// Degrade arms a fail-slow degradation of device dev starting now: every
// medium access multiplies its base latency by factor and adds extra,
// ramping to full strength over ramp (0 = step). The component keeps
// answering — just chronically late — which is exactly the gray failure the
// fabric's hedging and quarantine machinery mitigates. Requires a fault
// plan (Config.Fault; an empty plan suffices); without one this is a no-op.
func (c *Ctx) Degrade(dev int, factor float64, extra, ramp time.Duration) {
	c.s.pl.Inj.Degrade(fault.Degradation{
		Device: dev,
		Start:  c.proc.Now(),
		Ramp:   sim.Time(ramp),
		Factor: factor,
		Extra:  sim.Time(extra),
	})
}

// ClearDegradations drops every fail-slow profile targeting device dev (the
// component was replaced or recovered).
func (c *Ctx) ClearDegradations(dev int) { c.s.pl.Inj.ClearDegradations(dev) }

// CrashAt runs the workload like Run but cuts power at virtual time t: the
// simulation stops dead, in-flight requests, ring state, page cache and all.
// Only the medium's store survives, along with a write log recording every
// block write that reached it (for tearing off an un-persisted tail). The
// returned Crash restarts the platform against that surviving store.
//
// fn's error is deliberately discarded — a crashed workload did not finish,
// and half its in-flight calls would report timeouts anyway.
func (s *Simulation) CrashAt(t time.Duration, fn func(ctx *Ctx) error) *Crash {
	// The crash harness is single-device: device 0's store is what survives.
	store := s.pl.Hyp.Device(0).Ctl.Medium.Store()
	store.EnableWriteLog()
	s.pl.RunUntil(sim.Time(t), func(p *sim.Proc) error {
		s.startScrubber()
		return fn(&Ctx{proc: p, s: s})
	})
	return &Crash{cfg: s.cfg, store: store}
}

// Crash is the durable wreckage of a simulation stopped by CrashAt.
type Crash struct {
	cfg   Config
	store *blockdev.Store
}

// WriteLogLen reports how many block writes reached the medium before the
// crash.
func (c *Crash) WriteLogLen() int { return c.store.WriteLogLen() }

// DropTail undoes the newest n block writes on the store, restoring each
// block's pre-image (data and guard tag). This models writes that were
// acknowledged by the simulated medium but had not yet left its volatile
// cache — the torn tail a power cut leaves behind. Returns how many writes
// were actually undone.
func (c *Crash) DropTail(n int) int { return c.store.Rollback(n) }

// VerifyGuards recomputes every block's guard tag against the stored one and
// returns the mismatching LBAs (nil when the medium is fully consistent).
func (c *Crash) VerifyGuards() []int64 { return c.store.VerifyGuards() }

// Restart assembles a fresh platform — new controller, new hypervisor, new
// guests, virtual time zero — around the surviving store. Its Run remounts
// the host filesystem, replaying the journal, instead of formatting. The
// original Config is reused; pass RestartWith a modified one to, say, drop
// the fault plan for the recovery phase.
func (c *Crash) Restart() *Simulation { return c.RestartWith(c.cfg) }

// RestartWith is Restart with a different platform configuration.
func (c *Crash) RestartWith(cfg Config) *Simulation { return newSimulation(cfg, c.store) }

// VerifyGuards recomputes every block's guard tag on device 0's medium
// against the stored one and returns the mismatching LBAs (nil when fully
// consistent). This is the crash harness's whole-device integrity check of
// the store that survives a crash; unlike Ctx.Scrub it is timeless and
// inspects the store directly.
func (s *Simulation) VerifyGuards() []int64 {
	return s.pl.Hyp.Device(0).Ctl.Medium.Store().VerifyGuards()
}

// Ctx is the handle host-side code runs with: it carries the simulated
// process (for virtual time) and reaches the whole platform.
type Ctx struct {
	proc *sim.Proc
	s    *Simulation
}

// Now reports the current virtual time.
func (c *Ctx) Now() time.Duration { return time.Duration(c.proc.Now()) }

// Sleep advances virtual time for this process.
func (c *Ctx) Sleep(d time.Duration) { c.proc.Sleep(sim.Time(d)) }

// Go spawns a concurrent simulated process (e.g. one per tenant VM) and
// returns immediately; Wait on the returned handle joins it.
func (c *Ctx) Go(name string, fn func(ctx *Ctx) error) *Task {
	t := &Task{done: sim.NewSignal(c.proc.Engine())}
	c.proc.Engine().Go(name, func(p *sim.Proc) {
		t.err = fn(&Ctx{proc: p, s: c.s})
		t.done.Fire()
	})
	return t
}

// Task is a spawned simulated process.
type Task struct {
	done *sim.Signal
	err  error
}

// Wait blocks the calling context until the task finishes and returns its
// error.
func (t *Task) Wait(c *Ctx) error {
	t.done.Await(c.proc)
	return t.err
}

// Stats is a point-in-time snapshot of platform counters.
type Stats struct {
	// BTLBHitRate is the device translation cache hit rate.
	BTLBHitRate float64
	// BTLBHits / BTLBMisses are the raw lookup counts.
	BTLBHits, BTLBMisses int64
	// WalkNodeReads counts extent-tree node fetches by the device.
	WalkNodeReads int64
	// MissInterrupts counts hypervisor-serviced translation misses.
	MissInterrupts int64
	// MediumReadBytes / MediumWriteBytes count medium traffic.
	MediumReadBytes, MediumWriteBytes int64
	// DMAReadBytes / DMAWriteBytes count device-initiated PCIe traffic.
	DMAReadBytes, DMAWriteBytes int64
	// VirtualTime is the simulation clock.
	VirtualTime time.Duration

	// Fault-injection and recovery counters (all zero without a fault plan).

	// InjectedFaults is the total fault count across all injection sites.
	InjectedFaults int64
	// MediumErrors counts requests latched StatusMediumError after the DTU
	// exhausted its retries; MediumRetries counts the retries themselves.
	MediumErrors, MediumRetries int64
	// DMAFaultsInjected counts DMA transfers rejected by injection;
	// DroppedMSIs counts interrupts lost on the wire.
	DMAFaultsInjected, DroppedMSIs int64
	// FetchDrops / CplDrops count descriptor fetches and completion writes
	// the device dropped (observable, not silent).
	FetchDrops, CplDrops int64
	// DriverTimeouts counts request attempts that hit their deadline;
	// DriverResubmits counts requests reissued after a timeout or abort.
	DriverTimeouts, DriverResubmits int64
	// PolledCompletions counts completions recovered by ring polling;
	// StaleCompletions counts ring entries whose id had no waiter; SeqGaps
	// counts sequence numbers skipped over lost completion writes.
	PolledCompletions, StaleCompletions, SeqGaps int64
	// VFResets counts hypervisor-issued function-level resets; MissFaults
	// counts translation misses failed by injection.
	VFResets, MissFaults int64
	// BadRingWrites counts rejected ring-size programmings (zero or
	// non-power-of-two); BadDoorbells counts doorbell writes dropped as
	// incoherent (producer index further than one ring ahead of the
	// consumer, or rung on an inactive queue).
	BadRingWrites, BadDoorbells int64
	// LatentHits counts reads failed on latent bad sectors; LatentRepaired
	// counts latent sectors cleared by a successful rewrite.
	LatentHits, LatentRepaired int64

	// Data-integrity counters (the end-to-end guard-tag machinery).

	// IntegrityErrors counts corruptions that survived the device's retry
	// ladder (latched StatusIntegrityError) plus end-to-end PI failures the
	// device caught on writes; IntegrityRepairs counts corruptions healed by
	// a device retry or a scrub rewrite.
	IntegrityErrors, IntegrityRepairs int64
	// CorruptionsInjected totals silent payload corruptions inflicted by the
	// fault plan; CorruptionsDetected totals guard/PI detections across the
	// medium, the device, and the drivers. Detections can exceed injections
	// (one latched sector trips every read) — what must never happen is an
	// injection that shows up in neither CorruptionsDetected nor a repair.
	CorruptionsInjected, CorruptionsDetected int64
	// LatentOutstanding / CorruptOutstanding are the live latch counts —
	// sectors still bad right now. A completed scrub pass drives both to 0.
	LatentOutstanding, CorruptOutstanding int64
	// PIMismatches counts driver-detected read-guard mismatches (corruption
	// on the DMA path); PIWriteErrors counts StatusIntegrityError
	// completions the drivers observed.
	PIMismatches, PIWriteErrors int64
	// RootCauseOverrides counts failed requests that surfaced an earlier
	// attempt's integrity root cause instead of the final attempt's
	// timeout — detected corruption is never masked by retry exhaustion.
	RootCauseOverrides int64
	// MediumGuardErrors counts medium-level guard-check failures (each is a
	// detected corrupt read, pre-retry); RecoveryReads counts the slow
	// heroic-recovery reads the scrubber used to repair blocks.
	MediumGuardErrors, RecoveryReads int64
	// ScrubPasses / ScrubBlocks / ScrubRepairs summarize the background
	// scrubber; ScrubChunks counts verify chunks the device serviced.
	ScrubPasses, ScrubBlocks, ScrubRepairs, ScrubChunks int64

	// Gray-failure counters (all zero with fail-slow injection and its
	// mitigations off).

	// DegradedOps counts operations slowed by an armed fail-slow
	// degradation; DegradedTime is the total extra latency inflicted.
	DegradedOps  int64
	DegradedTime time.Duration
	// AdmitRejects counts requests the device's admission control
	// fast-failed busy; DeadlineExpirations counts chunks abandoned past
	// their deadline budget.
	AdmitRejects, DeadlineExpirations int64
	// BusyRejects counts busy completions observed by the ring drivers.
	BusyRejects int64
	// HedgedReads counts speculative second reads launched by mirror
	// clients; HedgeWins counts hedges that beat the primary leg.
	HedgedReads, HedgeWins int64
	// Quarantines / Rejoins count fail-slow legs held out of read steering
	// and readmitted; ProbeReads counts steering probes to slow legs.
	Quarantines, Rejoins, ProbeReads int64

	// Observability-layer counters (all zero with the layer off).

	// SLOAlerts counts multi-window burn-rate alerts fired across every
	// tracked tenant; AnomalyEvents counts structured scoreboard events
	// emitted (including ones the bounded ring has since overwritten).
	SLOAlerts, AnomalyEvents int64

	// Snapshot / clone counters (all zero until a snapshot is taken).

	// Snapshots counts snapshots captured (clones included); Clones counts
	// writable forks exported through fresh VFs.
	Snapshots, Clones int64
	// CowFaults counts guest writes the device trapped on write-protected
	// (shared) extents; CowBreaks counts the hypervisor-serviced share
	// breaks that resolved them.
	CowFaults, CowBreaks int64
	// BTLBInvalidations counts BTLB entries dropped by targeted
	// invalidation after CoW breaks.
	BTLBInvalidations int64
	// SharedBlocks is the live count of host data blocks shared between
	// images (blocks with extra references).
	SharedBlocks int64

	// Content-addressed tier counters (all zero with Config.CAS off).

	// CASSeals / CASForks / CASReleases count store operations: images
	// content-addressed, metadata-only clones taken, and images released.
	CASSeals, CASForks, CASReleases int64
	// CASDedupHits counts sealed blocks that matched an already-stored
	// chunk; CASChunksLive / CASBlocksLogical are the live population the
	// dedup ratio is computed from (logical blocks referenced vs unique
	// chunks stored).
	CASDedupHits, CASChunksLive, CASBlocksLogical int64
	// CASFetchMisses counts serviced fetch misses (first guest touches of
	// unmaterialized forked blocks); CASMaterializations counts the chunks
	// written into backing files by those services.
	CASFetchMisses, CASMaterializations int64
	// CASRemoteFetches / CASRemotePuts count remote-tier round trips (a
	// fetch carries every chunk one miss lacks);
	// CASRemoteRetries counts transient-fault retries across both;
	// CASRemoteFetchTime is the total virtual time spent waiting on GETs.
	CASRemoteFetches, CASRemotePuts, CASRemoteRetries int64
	CASRemoteFetchTime                                time.Duration
	// CASFetchFails counts chunks whose fetch exhausted the retry ladder;
	// CASHashMismatches counts payloads rejected by content verification
	// (the integrity ladder — corrupt chunks are never served).
	CASFetchFails, CASHashMismatches int64
	// CASCacheHits / CASCacheMisses / CASCacheEvictions / CASCacheResident
	// aggregate the per-device chunk caches.
	CASCacheHits, CASCacheMisses, CASCacheEvictions, CASCacheResident int64
}

// Stats snapshots the platform counters: every field is filled from its row
// of the platform's counter catalogue (internal/bench/catalogue.go), the
// same declaration the metrics registry's gauge families are registered
// from. A row naming a field Stats does not have panics here.
func (s *Simulation) Stats() Stats {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for _, c := range s.pl.Counters() {
		if c.Field == "" {
			continue
		}
		if f := v.FieldByName(c.Field); f.Kind() == reflect.Float64 {
			f.SetFloat(c.Get())
		} else {
			f.SetInt(int64(c.Get()))
		}
	}
	return st
}

// FaultSummary renders the injector's per-site counters, one deterministic
// line per site — two runs with the same plan must produce identical
// summaries. Without a fault plan it reports "fault: no plan".
func (s *Simulation) FaultSummary() string { return s.pl.Inj.Summary() }
