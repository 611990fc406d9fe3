// Package telemetry is how the platform shows what the controller reports:
// one core.Observer per device fans each report out to the sinks the platform
// armed. The controller is one fixed stage chain — fetch, vLBA queue,
// translate, pLBA queue, DTU, completion (paper Fig. 7) — and tells its
// observer of every stage a request or chunk ends (Stage), of every
// completion (Finish) and of what ends no stage (Event). Which span phase,
// histogram family, attribution segment and ring event a step becomes is
// decided here, in the stage table, and nowhere else. The mirror fabric and
// the content-addressed tier report here too (sinks.go), and this is the only
// package that names a sink: what a report becomes — row, series or event —
// is decided in this package alone.
//
// Everything here only READS the simulated clock — no instrumented path
// ever sleeps or schedules — so telemetry cannot perturb virtual time and
// every experiment output is byte-identical with it on or off. With an empty
// bundle each Stage call is one predictable branch and a request's record
// stays nil.
package telemetry

import (
	"nesc/internal/core"
	"nesc/internal/guest"
	"nesc/internal/metrics"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/trace"
)

// Observer is one controller's core.Observer: the shared bundle plus the
// device's flight recorder, which is always armed.
type Observer struct {
	Sinks
	Flight *FlightRecorder

	dev        int      // the controller's device ID
	retryDelay sim.Time // its MediumRetryDelay, carved out of the medium share
	// perReq is set when a sink consumes the per-request record (spans,
	// histograms, attribution); staged when Stage has any consumer at all
	// (those, or the event ring).
	perReq, staged bool
	cowBreak       *metrics.Histogram
}

// Observer returns the observer of the controller built with p.
func (s Sinks) Observer(p core.Params) *Observer {
	s.boardGauges()
	perReq := s.Spans != nil || s.Metrics != nil || s.Attrib != nil
	return &Observer{
		Sinks: s, Flight: NewFlightRecorder(8, 32), dev: p.DeviceID, retryDelay: p.MediumRetryDelay,
		perReq: perReq, staged: perReq || s.Events != nil,
		cowBreak: s.Metrics.Histogram("nesc_hyp_cow_break_ns", "CoW break service latency (fault read to BTLB invalidated)", metrics.NoLabels),
	}
}

// reqTel is a request's telemetry record (core.Request.Tel), allocated at
// fetch only when a sink consumes it.
type reqTel struct {
	span    *trace.Span  // nil when span recording is off
	retries int          // medium/integrity retry rounds
	segs    slo.Segments // per-segment latency vector, folded at completion
}

// family names one histogram or counter family of the request path. The
// naming scheme is nesc_<subsystem>_<name> with unit suffixes (_ns, _total).
type family struct{ name, help string }

var (
	famRequestNs  = family{"nesc_request_ns", "end-to-end request latency (fetch to completion)"}
	famRequests   = family{"nesc_requests_total", "requests completed (any status)"}
	famReqErrors  = family{"nesc_request_errors_total", "requests completed with a non-OK status"}
	famMedRetries = family{"nesc_medium_retries_total", "medium/integrity retry rounds"}
)

// stages is the one description of the pipeline every sink is fed from: what
// a span calls the stage, which histogram family times it, which attribution
// segment it is charged to, and which ring event marks its end. Translate
// takes its family and span tag from the chunk's outcome (translations); the
// two queue residences end without a ring event.
var stages = [...]struct {
	phase  string
	fam    family
	seg    int
	kind   trace.Kind
	silent bool
}{
	core.StFetch:     {phase: trace.PhaseFetch, fam: family{"nesc_pipeline_fetch_ns", "descriptor fetch + decode latency"}, seg: slo.SegFetch, kind: trace.KindFetch},
	core.StQueue:     {phase: trace.PhaseQueue, fam: family{"nesc_pipeline_queue_wait_ns", "vLBA queue residence per chunk"}, seg: slo.SegQueue, silent: true},
	core.StTranslate: {phase: trace.PhaseTransIn, seg: slo.SegTranslate, kind: trace.KindTranslate},
	core.StDTUWait:   {phase: trace.PhaseDTUWait, fam: family{"nesc_pipeline_dtu_wait_ns", "pLBA queue residence per chunk"}, seg: slo.SegDTUWait, silent: true},
	core.StTransfer:  {phase: trace.PhaseTransfer, fam: family{"nesc_pipeline_transfer_ns", "DMA channel service per chunk (medium + PCIe)"}, seg: slo.SegMedium, kind: trace.KindTransfer},
	core.StVerify:    {phase: trace.PhaseVerify, fam: family{"nesc_pipeline_verify_ns", "scrub verify service per chunk"}, seg: slo.SegMedium, kind: trace.KindVerify},
}

// translations gives each translation outcome its span tag and histogram.
var translations = [...]struct {
	tag string
	fam family
}{
	core.TransHit:  {trace.TagHit, family{"nesc_pipeline_translate_hit_ns", "translation latency, BTLB hit"}},
	core.TransWalk: {trace.TagWalk, family{"nesc_pipeline_translate_walk_ns", "translation latency, extent-tree walk"}},
	core.TransMiss: {trace.TagMiss, family{"nesc_pipeline_translate_miss_ns", "translation latency, hypervisor-serviced miss"}},
	core.TransCow:  {trace.TagCow, family{"nesc_pipeline_translate_cow_ns", "translation latency, hypervisor-serviced CoW break"}},
}

// ringKinds are the ring events of the core events that are one.
var ringKinds = [...]trace.Kind{
	core.EvDrop: trace.KindDrop, core.EvMiss: trace.KindMiss, core.EvRewalk: trace.KindRewalk, core.EvFault: trace.KindFault,
}

// reqLabels builds the {vf, q, op} label set for a request.
func reqLabels(r *core.Request) metrics.Labels {
	return metrics.VFQOp(r.Fn(), r.Queue(), ring.OpName(r.Op))
}

// Stage feeds one step to the event ring, the request's span, its stage
// histogram and its attribution segment; the fetch opens the request's record.
func (o *Observer) Stage(r *core.Request, s core.Step) {
	if !o.staged {
		return
	}
	d := &stages[s.Stage]
	fam, tag := d.fam, ""
	if s.Stage == core.StTranslate {
		fam, tag = translations[s.How].fam, translations[s.How].tag
	}
	if s.Chunk < 0 && o.perReq {
		rt := &reqTel{span: o.Spans.Start(r.Fn(), r.Queue(), ring.OpName(r.Op), r.ID, r.LBA, r.Count, r.Start())}
		if rt.span != nil {
			rt.span.ReqID, rt.span.Dev = r.ReqID, r.Dev()
		}
		r.Tel = rt
	}
	if !d.silent {
		o.Events.Emit(trace.Event{At: s.To, Kind: d.kind, Dev: o.dev, Fn: r.Fn(), LBA: s.LBA, Arg: s.Arg})
	}
	rt, _ := r.Tel.(*reqTel)
	if rt == nil {
		return
	}
	rt.span.Phase(d.phase, s.Chunk, s.From, s.To, tag)
	if o.Metrics != nil {
		o.Metrics.Histogram(fam.name, fam.help, reqLabels(r)).Observe(int64(s.To - s.From))
	}
	if s.To > s.From {
		rt.segs[d.seg] += s.To - s.From
	}
}

// Finish reports r's completion to every sink: request counters and the
// end-to-end histogram, the span recorder, the SLO engine, the attributor,
// and — for a terminal error — the flight recorder and the scoreboard; then
// the ring's completion event.
func (o *Observer) Finish(r *core.Request, now sim.Time) {
	status := r.Status()
	ok := status == ring.StatusOK
	rt, _ := r.Tel.(*reqTel)
	if o.Metrics != nil {
		l := reqLabels(r)
		o.Metrics.Counter(famRequests.name, famRequests.help, l).Inc()
		if !ok {
			o.Metrics.Counter(famReqErrors.name, famReqErrors.help, l).Inc()
		}
		o.Metrics.Histogram(famRequestNs.name, famRequestNs.help, l).Observe(int64(now - r.Start()))
	}
	if rt != nil {
		o.Spans.Finish(rt.span, now, status)
	}
	if o.SLO != nil {
		o.observe(r.Fn(), now, now-r.Start(), ok, r.ReqID)
	}
	if rt != nil && o.Attrib != nil {
		o.attribute(r, rt, now)
	}
	if !ok && status != ring.StatusBusy {
		// Terminal error: snapshot the event-ring tail and this request's
		// span for post-mortem retrieval. Busy is exempt — it is
		// backpressure, not a fault, and under sustained admission pressure
		// it would flush every real error out of the buffer.
		o.captureFlight(now, r.Fn(), r, "completion-error")
		o.anomaly(slo.EventRequestError, now, r.Fn(), r.ReqID, float64(status), "")
	}
	o.Events.Emit(trace.Event{At: now, Kind: trace.KindComplete, Dev: o.dev, Fn: r.Fn(), LBA: r.LBA, Arg: uint64(status)})
}

// Event shows an occurrence that ends no stage.
func (o *Observer) Event(e core.Event) {
	switch e.Kind {
	case core.EvDrop, core.EvMiss, core.EvRewalk, core.EvFault:
		o.Events.Emit(trace.Event{At: e.At, Kind: ringKinds[e.Kind], Dev: o.dev, Fn: e.Fn, LBA: e.LBA, Arg: e.Arg})
	case core.EvReset:
		o.Events.Emit(trace.Event{At: e.At, Kind: trace.KindReset, Dev: o.dev, Fn: e.Fn, Arg: e.Arg})
		o.captureFlight(e.At, e.Fn, nil, "reset")
		o.anomaly(slo.EventFLR, e.At, e.Fn, 0, 0, "")
	case core.EvRetry:
		o.noteRetry(e.Req)
	case core.EvAdmitReject:
		o.anomaly(slo.EventAdmitReject, e.At, e.Fn, e.Req.ReqID, 0, "")
	case core.EvDeadline:
		o.anomaly(slo.EventDeadline, e.At, e.Fn, e.Req.ReqID, 0, e.Note)
	case core.EvMaterialized:
		o.fnGauges(e.Fn, e.Obj.(*core.Function))
	case core.EvCowBreak:
		o.cowBreak.Observe(int64(e.Arg))
	case core.EvRoute:
		o.routed(e.Fn, e.Obj.(*guest.MultiQueue), e.Arg == 1)
	}
}

// anomaly posts a structured event to the scoreboard. note names the
// pipeline stage for deadline expirations; reqID is 0 when the event is not
// request-scoped.
func (o *Observer) anomaly(kind slo.EventKind, at sim.Time, fn int, reqID uint64, value float64, note string) {
	o.Board.Emit(slo.Event{At: at, Kind: kind, Dev: o.dev, VF: fn, ReqID: reqID, Value: value, Note: note})
}

// noteRetry attributes one medium retry round to the request's record.
func (o *Observer) noteRetry(r *core.Request) {
	rt, _ := r.Tel.(*reqTel)
	if rt == nil {
		return
	}
	rt.retries++
	if rt.span != nil {
		rt.span.Retries++
	}
	if o.Metrics != nil {
		o.Metrics.Counter(famMedRetries.name, famMedRetries.help, reqLabels(r)).Inc()
	}
}

// attribute finalizes a completed request's segment vector — retry share
// carved out of the medium share, admission-gate rejects charged entirely to
// admission, residual wall time to "other" — and folds it into the budget
// table.
func (o *Observer) attribute(r *core.Request, rt *reqTel, now sim.Time) {
	segs := &rt.segs
	total := now - r.Start()
	if n := rt.retries; n > 0 {
		rd := sim.Time(n) * o.retryDelay
		if rd > segs[slo.SegMedium] {
			rd = segs[slo.SegMedium]
		}
		segs[slo.SegRetry] = rd
		segs[slo.SegMedium] -= rd
	}
	if !r.Admitted() && r.Status() == ring.StatusBusy {
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
	o.record(r.Fn(), ring.OpName(r.Op), r.ReqID, total, r.Status() == ring.StatusOK, *segs)
}

// fnGauges publishes one function's {vf} gauge series. They are registered
// when the function comes into existence, not from the platform catalogue,
// because the moment of registration decides which series a capped family
// keeps; configured-but-idle VFs never occupy series. Only the primary device
// publishes them: series carry no device label, and a replica's closures
// would silently replace the primary's (ROADMAP item 13).
func (o *Observer) fnGauges(fn int, f *core.Function) {
	reg, l := o.Metrics, metrics.VFLabel(fn)
	if reg == nil || o.dev != 0 {
		return
	}
	reg.GaugeFunc("nesc_fn_inflight", "fetched-but-uncompleted requests", l, func() float64 { return float64(f.Inflight()) })
	reg.GaugeFunc("nesc_fn_reqs_total", "requests fetched", l, func() float64 { return float64(f.Reqs) })
	reg.GaugeFunc("nesc_fn_blocks_total", "blocks requested", l, func() float64 { return float64(f.Blocks) })
	reg.GaugeFunc("nesc_fn_resets_total", "function-level resets", l, func() float64 { return float64(f.Resets) })
}

// routed takes a ring client the hypervisor routed function fn's completions
// to. A guest's client credits its driver-side admission backoff to fn's
// attribution rows. Every client's queues publish {vf, q} depth and
// submission gauges (a later client on the same function replaces the
// closures), on the primary device only, as fnGauges.
func (o *Observer) routed(fn int, mq *guest.MultiQueue, guestClient bool) {
	if o.Attrib != nil && guestClient {
		mq.SetBackoff(func(op uint32, waited sim.Time) { o.credit(fn, ring.OpName(op), slo.SegAdmission, waited) })
	}
	if o.Metrics == nil || o.dev != 0 {
		return
	}
	for q, qp := range mq.Queues() {
		l := metrics.Labels{VF: fn, Q: q}
		o.Metrics.GaugeFunc("nesc_driver_queue_depth", "in-flight submissions on this driver queue", l, func() float64 { return float64(qp.Depth()) })
		o.Metrics.GaugeFunc("nesc_driver_queue_submitted_total", "requests submitted on this driver queue", l, func() float64 { return float64(qp.Submitted) })
	}
}
