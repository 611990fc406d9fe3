package core

import (
	"nesc/internal/metrics"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/trace"
)

// The telemetry spine. The controller is one fixed stage chain — fetch, vLBA
// queue, translate, pLBA queue, DTU, completion (paper Fig. 7) — and it is
// instrumented exactly once: every stage site in pipeline.go makes one call
// to stage, sendCompletion makes one call to finish, and the occurrences
// that belong to no stage (miss, rewalk, fault, drop, reset) go through
// event. Those three functions fan out to whichever sinks the bundle handed
// to New carries; nothing else in the package talks to a sink.
//
// Everything here only READS the simulated clock — no instrumented path
// ever sleeps or schedules — so telemetry cannot perturb virtual time and
// every experiment output is byte-identical with it on or off. With an empty
// bundle each hook is one predictable branch and a request carries one nil
// pointer.

// Sinks is the telemetry bundle: the six consumers a platform can arm, built
// once by whoever assembles the platform and handed to every layer through
// its constructor. Any field may be nil; the zero Sinks is "telemetry off".
type Sinks struct {
	Events  *trace.Ring         // ring of recent device events
	Spans   *trace.SpanRecorder // request-scoped stage spans
	Metrics *metrics.Registry   // per-stage histograms, request counters, gauges
	Attrib  *slo.Attributor     // per-{vf,op} latency budget table
	SLO     *slo.Engine         // per-tenant objectives and burn-rate alerts
	Board   *slo.Scoreboard     // structured anomaly events
}

// The three hooks below are what the rest of the kernel reports outside the
// device pipeline, so that their family names sit in this file with every
// other one the kernel emits and no other kernel package names a sink.

// AdmissionBackoff returns the hook (guest.RingConfig.Backoff) through which
// the ring client of function fn credits driver-side admission backoff to that
// function's attribution rows; nil without an attributor.
func (s Sinks) AdmissionBackoff(fn int) func(op uint32, waited sim.Time) {
	a := s.Attrib
	if a == nil {
		return nil
	}
	return func(op uint32, waited sim.Time) { a.AddSegment(fn, ring.OpName(op), slo.SegAdmission, waited) }
}

// CowBreakTimer registers the histogram of the hypervisor's CoW break service
// (fault read to sharing broken and BTLB invalidated) and returns its observer.
func (s Sinks) CowBreakTimer() func(took sim.Time) {
	h := s.Metrics.Histogram("nesc_hyp_cow_break_ns", "CoW break service latency (fault read to BTLB invalidated)", metrics.NoLabels)
	return func(took sim.Time) { h.Observe(int64(took)) }
}

// DriverQueueGauges publishes the {vf, q} depth and submission gauges of queue
// q of function fn's ring driver; a later driver on the same function replaces
// the closures.
func (s Sinks) DriverQueueGauges(fn, q int, depth, submitted func() float64) {
	l := metrics.Labels{VF: fn, Q: q}
	s.Metrics.GaugeFunc("nesc_driver_queue_depth", "in-flight submissions on this driver queue", l, depth)
	s.Metrics.GaugeFunc("nesc_driver_queue_submitted_total", "requests submitted on this driver queue", l, submitted)
}

// spine is one controller's telemetry state: the shared bundle plus the
// flight recorder, which is device-local (its record count is a PF register)
// and always armed.
type spine struct {
	Sinks
	flight *FlightRecorder
	// perReq is set when a sink consumes the per-request record (spans,
	// histograms, attribution); staged when stage has any consumer at all
	// (those, or the event ring).
	perReq, staged bool
}

func newSpine(s Sinks) spine {
	perReq := s.Spans != nil || s.Metrics != nil || s.Attrib != nil
	return spine{Sinks: s, flight: NewFlightRecorder(8, 32), perReq: perReq, staged: perReq || s.Events != nil}
}

// reqTel is a request's telemetry record, allocated at fetch only when a
// sink consumes it — with telemetry off a Request carries a nil pointer.
type reqTel struct {
	span    *trace.Span  // nil when span recording is off
	retries int          // medium/integrity retry rounds
	segs    slo.Segments // per-segment latency vector, folded at completion
}

// family names one histogram or counter family of the request path. The
// naming scheme is nesc_<subsystem>_<name> with unit suffixes (_ns, _total).
type family struct{ name, help string }

var (
	famTransHit   = family{"nesc_pipeline_translate_hit_ns", "translation latency, BTLB hit"}
	famTransWalk  = family{"nesc_pipeline_translate_walk_ns", "translation latency, extent-tree walk"}
	famTransMiss  = family{"nesc_pipeline_translate_miss_ns", "translation latency, hypervisor-serviced miss"}
	famTransCow   = family{"nesc_pipeline_translate_cow_ns", "translation latency, hypervisor-serviced CoW break"}
	famRequestNs  = family{"nesc_request_ns", "end-to-end request latency (fetch to completion)"}
	famRequests   = family{"nesc_requests_total", "requests completed (any status)"}
	famReqErrors  = family{"nesc_request_errors_total", "requests completed with a non-OK status"}
	famMedRetries = family{"nesc_medium_retries_total", "medium/integrity retry rounds"}
)

// stageID indexes the stage table.
type stageID uint8

const (
	stFetch     stageID = iota // descriptor DMA + decode (request-level)
	stQueue                    // vLBA queue residence
	stTranslate                // BTLB lookup / tree walk / miss service
	stDTUWait                  // pLBA queue residence
	stTransfer                 // DMA channel service (medium + PCIe)
	stVerify                   // scrub verify service
)

// stages is the one description of the pipeline every sink is fed from: what
// a span calls the stage, which histogram family times it, which attribution
// segment it is charged to, and which ring event marks its end. Translate
// picks its family from the chunk's outcome tag (translateFamily); the two
// queue residences end without a ring event.
var stages = [...]struct {
	phase  string
	fam    family
	seg    int
	kind   trace.Kind
	silent bool
}{
	stFetch:     {phase: trace.PhaseFetch, fam: family{"nesc_pipeline_fetch_ns", "descriptor fetch + decode latency"}, seg: slo.SegFetch, kind: trace.KindFetch},
	stQueue:     {phase: trace.PhaseQueue, fam: family{"nesc_pipeline_queue_wait_ns", "vLBA queue residence per chunk"}, seg: slo.SegQueue, silent: true},
	stTranslate: {phase: trace.PhaseTransIn, seg: slo.SegTranslate, kind: trace.KindTranslate},
	stDTUWait:   {phase: trace.PhaseDTUWait, fam: family{"nesc_pipeline_dtu_wait_ns", "pLBA queue residence per chunk"}, seg: slo.SegDTUWait, silent: true},
	stTransfer:  {phase: trace.PhaseTransfer, fam: family{"nesc_pipeline_transfer_ns", "DMA channel service per chunk (medium + PCIe)"}, seg: slo.SegMedium, kind: trace.KindTransfer},
	stVerify:    {phase: trace.PhaseVerify, fam: family{"nesc_pipeline_verify_ns", "scrub verify service per chunk"}, seg: slo.SegMedium, kind: trace.KindVerify},
}

// translateFamily maps a translation outcome tag to its histogram family.
func translateFamily(tag string) family {
	switch tag {
	case trace.TagWalk:
		return famTransWalk
	case trace.TagMiss:
		return famTransMiss
	case trace.TagCow:
		return famTransCow
	}
	return famTransHit
}

// qIdx is the index of the queue a request was fetched from (0 for a
// request with no queue, as register-level tests build).
func (r *Request) qIdx() int {
	if r.q == nil {
		return 0
	}
	return r.q.idx
}

// reqLabels builds the {vf, q, op} label set for a request.
func reqLabels(r *Request) metrics.Labels {
	return metrics.VFQOp(r.fn.idx, r.qIdx(), ring.OpName(r.Op))
}

// stage reports that a stage of r ended at now. ch is the chunk that went
// through it, nil for the request-level fetch stage, which also opens the
// request's record. The stage began where the chunk's previous one ended
// (ch.mark; the fetch began at r.t0), so consecutive calls tile a chunk's
// life with no gaps; a chunk that skipped translation (the PF's out-of-band
// path) reaches the DTU with no mark and has no pLBA-queue interval. arg is
// the ring event's detail word.
func (c *Controller) stage(r *Request, ch *chunk, st stageID, now sim.Time, arg uint64) {
	t := &c.tel
	if !t.staged {
		return
	}
	d := &stages[st]
	lba, idx, t0, tag := r.LBA, -1, r.t0, ""
	fam := d.fam
	if ch != nil {
		lba, idx, t0 = ch.lba, ch.idx, ch.mark
		ch.mark = now
		if st == stTranslate {
			tag, fam = ch.tag, translateFamily(ch.tag)
		}
	} else if t.perReq {
		r.tel = &reqTel{span: t.Spans.Start(r.fn.idx, r.qIdx(), ring.OpName(r.Op), r.ID, r.LBA, r.Count, r.t0)}
		if s := r.tel.span; s != nil {
			s.ReqID, s.Dev = r.ReqID, c.P.DeviceID
		}
	}
	if !d.silent {
		t.Events.Emit(trace.Event{At: now, Kind: d.kind, Dev: c.P.DeviceID, Fn: r.fn.idx, LBA: lba, Arg: arg})
	}
	rt := r.tel
	if rt == nil || (ch != nil && t0 == 0) {
		return
	}
	rt.span.Phase(d.phase, idx, t0, now, tag)
	if t.Metrics != nil {
		t.Metrics.Histogram(fam.name, fam.help, reqLabels(r)).Observe(int64(now - t0))
	}
	if now > t0 {
		rt.segs[d.seg] += now - t0
	}
}

// finish reports r's completion (status final, completion entry not yet
// written) to every sink: request counters and the end-to-end histogram, the
// span recorder, the SLO engine, the attributor, and — for a terminal error
// — the flight recorder and the scoreboard.
func (c *Controller) finish(r *Request, now sim.Time) {
	t := &c.tel
	ok := r.status == ring.StatusOK
	if t.Metrics != nil {
		l := reqLabels(r)
		t.Metrics.Counter(famRequests.name, famRequests.help, l).Inc()
		if !ok {
			t.Metrics.Counter(famReqErrors.name, famReqErrors.help, l).Inc()
		}
		t.Metrics.Histogram(famRequestNs.name, famRequestNs.help, l).Observe(int64(now - r.t0))
	}
	if r.tel != nil {
		t.Spans.Finish(r.tel.span, now, r.status)
	}
	if t.SLO != nil {
		t.SLO.Observe(r.fn.idx, now, now-r.t0, ok, r.ReqID)
	}
	if r.tel != nil && t.Attrib != nil {
		c.attribute(r, now)
	}
	if !ok && r.status != ring.StatusBusy {
		// Terminal error: snapshot the event-ring tail and this request's
		// span for post-mortem retrieval through the PF. Busy is exempt —
		// it is backpressure, not a fault, and under sustained admission
		// pressure it would flush every real error out of the buffer.
		c.captureFlight(now, r.fn.idx, r, "completion-error")
		c.anomaly(slo.EventRequestError, r.fn.idx, r.ReqID, float64(r.status), "")
	}
	c.event(trace.KindComplete, r.fn.idx, r.LBA, uint64(r.status))
}

// event records a device event that is not the end of a pipeline stage.
func (c *Controller) event(kind trace.Kind, fn int, lba, arg uint64) {
	c.tel.Events.Emit(trace.Event{At: c.Eng.Now(), Kind: kind, Dev: c.P.DeviceID, Fn: fn, LBA: lba, Arg: arg})
}

// anomaly posts a structured event to the scoreboard. note names the
// pipeline stage for deadline expirations; reqID is 0 when the event is not
// request-scoped.
func (c *Controller) anomaly(kind slo.EventKind, fn int, reqID uint64, value float64, note string) {
	c.tel.Board.Emit(slo.Event{At: c.Eng.Now(), Kind: kind, Dev: c.P.DeviceID, VF: fn, ReqID: reqID, Value: value, Note: note})
}

// noteRetry attributes one medium retry round to the request's record.
func (c *Controller) noteRetry(r *Request) {
	rt := r.tel
	if rt == nil {
		return
	}
	rt.retries++
	if rt.span != nil {
		rt.span.Retries++
	}
	if c.tel.Metrics != nil {
		c.tel.Metrics.Counter(famMedRetries.name, famMedRetries.help, reqLabels(r)).Inc()
	}
}

// attribute finalizes a completed request's segment vector — retry share
// carved out of the medium share, admission-gate rejects charged entirely to
// admission, residual wall time to "other" — and folds it into the budget
// table. Called only with an attributor attached and the record open.
func (c *Controller) attribute(r *Request, now sim.Time) {
	segs := &r.tel.segs
	total := now - r.t0
	if n := r.tel.retries; n > 0 {
		rd := sim.Time(n) * c.P.MediumRetryDelay
		if rd > segs[slo.SegMedium] {
			rd = segs[slo.SegMedium]
		}
		segs[slo.SegRetry] = rd
		segs[slo.SegMedium] -= rd
	}
	if !r.admitted && r.status == ring.StatusBusy {
		// Fast-failed at the admission gate: nothing executed, its whole
		// (short) life was admission control.
		segs[slo.SegAdmission] = total
	}
	var sum sim.Time
	for _, s := range segs {
		sum += s
	}
	if total > sum {
		segs[slo.SegOther] = total - sum
	}
	c.tel.Attrib.Record(r.fn.idx, ring.OpName(r.Op), r.ReqID, total, r.status == ring.StatusOK, *segs)
}

// registerFnGauges publishes one function's {vf} gauge series. They are
// registered when the function comes into existence, not from the platform
// catalogue, because the moment of registration decides which series a
// capped family keeps; configured-but-idle VFs never occupy series. Only the
// primary device publishes them: series carry no device label, and a
// replica's closures would silently replace the primary's.
func (c *Controller) registerFnGauges(f *Function) {
	reg, l := c.tel.Metrics, metrics.VFLabel(f.idx)
	if reg == nil || c.P.DeviceID != 0 {
		return
	}
	reg.GaugeFunc("nesc_fn_inflight", "fetched-but-uncompleted requests", l, func() float64 { return float64(f.inflight) })
	reg.GaugeFunc("nesc_fn_reqs_total", "requests fetched", l, func() float64 { return float64(f.Reqs) })
	reg.GaugeFunc("nesc_fn_blocks_total", "blocks requested", l, func() float64 { return float64(f.Blocks) })
	reg.GaugeFunc("nesc_fn_resets_total", "function-level resets", l, func() float64 { return float64(f.Resets) })
}

// JainFairness computes Jain's fairness index (Σx)²/(n·Σx²) over the block
// counts of materialized VFs that served any traffic; 1 when idle. Only
// materialized VFs can have moved traffic, so the lazy table loses nothing.
func (c *Controller) JainFairness() float64 {
	var sum, sumSq float64
	n := 0
	c.forEachVF(func(f *Function) {
		if f.Blocks == 0 {
			return
		}
		x := float64(f.Blocks)
		sum += x
		sumSq += x * x
		n++
	})
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}
