package telemetry

import (
	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/trace"
)

// Sinks is the telemetry bundle: the six consumers a platform can arm, each
// built on its own by whoever assembles the platform and handed to every layer
// through its constructor. Any field may be nil; the zero Sinks is "telemetry
// off". No sink knows another: this file is where a report becomes an
// attribution row, a series or a scoreboard event, and where what one sink
// holds is published in another.
type Sinks struct {
	Events  *trace.Ring         // ring of recent device events
	Spans   *trace.SpanRecorder // request-scoped stage spans
	Metrics *metrics.Registry   // per-stage histograms, request counters, gauges
	Attrib  *slo.Attributor     // per-{vf,op} latency budget table
	SLO     *slo.Engine         // per-tenant objectives and burn-rate alerts
	Board   *slo.Scoreboard     // structured anomaly events
}

// FabricRead attributes one delivered (or abandoned) read of a mirror client
// fronting function tenant to the tenant's "fabric-read" row, kept apart from
// the device-side rows of the legs: the medium segment carries the winning
// leg's own service time svc, fabric wait everything else the tenant waited —
// failed attempts, steering, the hedge delay when a backup leg won.
func (s Sinks) FabricRead(tenant int, total, svc sim.Time, ok bool) {
	if s.Attrib == nil {
		return
	}
	var segs slo.Segments
	segs[slo.SegMedium] = min(svc, total)
	segs[slo.SegFabricWait] = total - segs[slo.SegMedium]
	s.record(tenant, "fabric-read", 0, total, ok, segs)
}

// Quarantined shows a fail-slow detector trip on mirror leg device dev — ratio
// is its window p99 over its baseline p99 — and then the quarantine of length
// d the trip starts.
func (s Sinks) Quarantined(at sim.Time, dev, tenant int, ratio float64, d sim.Time) {
	if s.Board == nil {
		return
	}
	s.Board.Emit(slo.Event{At: at, Kind: slo.EventDetectorTrip, Dev: dev, VF: tenant, Value: ratio, Note: "fail-slow p99"})
	s.Board.Emit(slo.Event{At: at, Kind: slo.EventQuarantine, Dev: dev, VF: tenant, Value: float64(d)})
}

// Rejoined shows a quarantined mirror leg on device dev rejoining service.
func (s Sinks) Rejoined(at sim.Time, dev, tenant int) {
	s.Board.Emit(slo.Event{At: at, Kind: slo.EventRejoin, Dev: dev, VF: tenant})
}

// ChunkFetched credits function fn's op row with the time a content-addressed
// chunk's remote fetch took: fabric time from the tenant's view.
func (s Sinks) ChunkFetched(fn int, op string, d sim.Time) { s.credit(fn, op, slo.SegFabricWait, d) }

// ChunkWritten credits function fn's op row with the time writing a fetched
// chunk into its backing file took: medium time.
func (s Sinks) ChunkWritten(fn int, op string, d sim.Time) { s.credit(fn, op, slo.SegMedium, d) }

// observe feeds one completion to the SLO engine and posts what it fired to
// the scoreboard: the burn alert, then the budget's exhaustion.
func (s Sinks) observe(fn int, at, latency sim.Time, ok bool, reqID uint64) {
	v := s.SLO.Observe(fn, at, latency, ok)
	if v.Opened {
		s.tenantGauges(fn)
	}
	if v.Fired {
		s.Board.Emit(slo.Event{At: at, Kind: slo.EventSLOBurn, Dev: -1, VF: fn, ReqID: reqID, Value: v.Burn})
	}
	if v.Exhausted {
		s.Board.Emit(slo.Event{At: at, Kind: slo.EventBudgetExhausted, Dev: -1, VF: fn, ReqID: reqID, Value: 1})
	}
}

// record folds one finished request into its attribution row.
func (s Sinks) record(vf int, op string, reqID uint64, total sim.Time, ok bool, segs slo.Segments) {
	if s.Attrib.Record(vf, op, reqID, total, ok, segs) {
		s.rowGauges(vf, op)
	}
}

// credit adds d to one segment of an attribution row without a request.
func (s Sinks) credit(vf int, op string, seg int, d sim.Time) {
	if s.Attrib.AddSegment(vf, op, seg, d) {
		s.rowGauges(vf, op)
	}
}

// The gauges below are registered the moment their row, tenant or board
// comes into existence, because the moment of registration decides which
// series a capped family keeps. Each closure reads its sink at export.

// rowGauges publishes one attribution row: its request and error counts and
// one nesc_attrib_<segment>_ns_total family per segment, labelled {vf, op}.
func (s Sinks) rowGauges(vf int, op string) {
	reg, a, l := s.Metrics, s.Attrib, metrics.Labels{VF: vf, Q: -1, Op: op}
	if reg == nil {
		return
	}
	reg.GaugeFunc("nesc_attrib_requests_total", "requests folded into the attribution row", l,
		func() float64 { return float64(a.Row(vf, op).Requests) })
	reg.GaugeFunc("nesc_attrib_errors_total", "non-OK requests in the attribution row", l,
		func() float64 { return float64(a.Row(vf, op).Errors) })
	for i := 0; i < slo.NumSegments; i++ {
		seg := slo.SegmentName(i)
		reg.GaugeFunc("nesc_attrib_"+seg+"_ns_total", "summed "+seg+" time attributed to this row", l,
			func() float64 { return float64(a.Row(vf, op).SegNs[i]) })
	}
}

// tenantGauges publishes one tenant's burn rates, budget and alert count,
// labelled {vf}.
func (s Sinks) tenantGauges(vf int) {
	reg, e, l := s.Metrics, s.SLO, metrics.VFLabel(vf)
	if reg == nil {
		return
	}
	reg.GaugeFunc("nesc_slo_burn_rate_short", "short-window error-budget burn rate", l,
		func() float64 { return e.Tenant(vf).BurnShort })
	reg.GaugeFunc("nesc_slo_burn_rate_long", "long-window error-budget burn rate", l,
		func() float64 { return e.Tenant(vf).BurnLong })
	reg.GaugeFunc("nesc_slo_budget_consumed", "cumulative error-budget fraction spent", l,
		func() float64 { return e.Tenant(vf).BudgetConsumed })
	reg.GaugeFunc("nesc_slo_alerts_total", "burn-rate alerts fired for this tenant", l,
		func() float64 { return float64(e.Tenant(vf).Alerts) })
}

// boardGauges publishes the scoreboard's emission count per kind, labelled by
// kind; a board armed beside a registry has them from the first observer on.
func (s Sinks) boardGauges() {
	reg, b := s.Metrics, s.Board
	if reg == nil || b == nil {
		return
	}
	for k := slo.EventKind(0); k < slo.NumEventKinds; k++ {
		reg.GaugeFunc("nesc_scoreboard_events_total", "structured anomaly events emitted, by kind",
			metrics.Labels{VF: -1, Q: -1, Op: k.String()}, func() float64 { return float64(b.Count(k)) })
	}
}
