package trace

import (
	"nesc/internal/sim"
	"nesc/internal/stats"
)

// Request-scoped spans. Where the event Ring answers "what happened, in
// order", a Span answers "where did THIS request's time go": it carries one
// timestamped phase per pipeline stage each of its chunks passed through —
// fetch, translate (tagged BTLB hit / tree walk / hypervisor miss), transfer,
// verify — plus the request's own start/end and final status. Spans are pure
// bookkeeping: recording a phase reads the simulated clock but never advances
// it, so span collection is virtual-time-neutral by construction.

// Phase names, used both in spans and as metric name fragments.
const (
	PhaseFetch    = "fetch"     // descriptor DMA + decode
	PhaseQueue    = "queue"     // vLBA queue residence
	PhaseTransIn  = "translate" // BTLB lookup / tree walk / miss service
	PhaseDTUWait  = "dtu_wait"  // pLBA queue residence
	PhaseTransfer = "transfer"  // DMA channel service (medium + PCIe)
	PhaseVerify   = "verify"    // scrub verify service
)

// Translation outcome tags on PhaseTransIn phases.
const (
	TagHit  = "hit"  // BTLB hit
	TagWalk = "walk" // extent-tree walk satisfied in hardware
	TagMiss = "miss" // walk parked; hypervisor serviced a miss
	TagCow  = "cow"  // write trapped on a protected extent; hypervisor broke sharing
)

// Phase is one timestamped stage interval within a span. Chunk is the
// 0-based chunk index the phase belongs to, or -1 for request-level phases
// (fetch). Tag carries stage-specific detail: the translation outcome, a
// transfer's completion status, a retry count.
type Phase struct {
	Name  string
	Chunk int
	Start sim.Time
	End   sim.Time
	Tag   string
}

// Span is one request's recorded lifecycle.
type Span struct {
	Dev   int    // recording controller's device ID within the fleet
	Fn    int    // function index (0 = PF)
	Q     int    // queue-pair index
	Op    string // "read", "write", "verify", ...
	ID    uint32 // descriptor id
	LBA   uint64
	Count uint32 // blocks

	// ReqID is the controller-assigned causal request id threading this
	// request through metrics, scoreboard events, and flight records
	// (0 when the recording controller predates request ids).
	ReqID uint64

	Start  sim.Time // descriptor fetch began
	End    sim.Time // completion written (or dropped)
	Status uint32   // final completion status

	// Retries counts medium/integrity retry rounds attributed to the
	// request's chunks.
	Retries int

	Phases []Phase
}

// Phase appends a stage interval.
func (s *Span) Phase(name string, chunk int, start, end sim.Time, tag string) {
	if s == nil {
		return
	}
	s.Phases = append(s.Phases, Phase{Name: name, Chunk: chunk, Start: start, End: end, Tag: tag})
}

// Duration reports the span's total wall (virtual) time.
func (s *Span) Duration() sim.Time { return s.End - s.Start }

// SpanRecorder retains the last capacity completed spans in a ring. A nil
// *SpanRecorder is a valid disabled recorder: Start returns nil spans, and
// nil spans no-op everywhere, so instrumented code needs no conditionals.
type SpanRecorder struct {
	spans stats.Ring[*Span]
	// Total counts all spans ever finished (including overwritten ones).
	Total int64
}

// NewSpanRecorder returns a recorder holding the last capacity spans.
func NewSpanRecorder(capacity int) *SpanRecorder {
	return &SpanRecorder{spans: stats.NewRing[*Span](capacity)}
}

// Start opens a span. Safe on a nil receiver (returns a nil span).
func (r *SpanRecorder) Start(fn, q int, op string, id uint32, lba uint64, count uint32, at sim.Time) *Span {
	if r == nil {
		return nil
	}
	return &Span{Fn: fn, Q: q, Op: op, ID: id, LBA: lba, Count: count, Start: at}
}

// Finish seals a span and retains it. Safe on nil receiver or nil span.
func (r *SpanRecorder) Finish(s *Span, at sim.Time, status uint32) {
	if r == nil || s == nil {
		return
	}
	s.End = at
	s.Status = status
	r.Total++
	r.spans.Put(s)
}

// Len reports how many spans are currently held.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	return r.spans.Len()
}

// Spans returns the held spans in completion order (a copy of the slice;
// the spans themselves are shared and must be treated as read-only).
func (r *SpanRecorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	return r.spans.Snapshot()
}
