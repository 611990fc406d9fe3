package telemetry

import (
	"fmt"
	"io"

	"nesc/internal/core"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/trace"
)

// Flight recorder: when a request retires with a terminal error status — a
// medium error that exhausted retries, an integrity mismatch, a DMA fault, an
// abort from a function-level reset — the device's observer snapshots the
// tail of the device event ring plus the offending request's span into a
// small diagnostics ring, which the platform dumps (nescctl -flight); like a
// real controller's crash log, the buffer survives the error and costs
// nothing on the happy path (one status compare per completion). Capture
// reads the simulated clock but never advances it.

// FlightRecord is one captured error context.
type FlightRecord struct {
	Seq    int64    // 1-based capture sequence number
	At     sim.Time // capture time
	Reason string   // "completion-error" or "reset"
	Dev    int      // capturing controller's device ID within the fabric

	// Offending request (zeroed for reason "reset", which is not
	// request-scoped). ReqID is the controller-assigned causal request id —
	// the cross-link key scoreboard events and spans carry too.
	Fn     int
	Q      int
	Op     string
	ID     uint32
	ReqID  uint64
	LBA    uint64
	Count  uint32
	Status uint32

	// Events is the tail of the device event ring at capture time.
	Events []trace.Event
	// Span is the offending request's span (nil when span recording is off
	// or the record is not request-scoped).
	Span *trace.Span
}

// FlightRecorder retains the last few FlightRecords in a ring. The record
// buffer itself is allocated lazily on the first capture — an error-free
// device (or one of a thousand idle ones) carries only the header.
type FlightRecorder struct {
	recs   stats.Ring[FlightRecord]
	evTail int
	// Total counts all records ever captured (including overwritten ones).
	Total int64
}

// NewFlightRecorder returns a recorder holding the last records captures,
// each carrying up to eventTail trailing ring events.
func NewFlightRecorder(records, eventTail int) *FlightRecorder {
	return &FlightRecorder{recs: stats.NewRing[FlightRecord](records), evTail: eventTail}
}

// capture stores one record, snapshotting the event ring's tail.
func (fr *FlightRecorder) capture(rec FlightRecord, ring *trace.Ring) {
	if fr.evTail > 0 {
		rec.Events = ring.Tail(fr.evTail)
	}
	fr.Total++
	rec.Seq = fr.Total
	fr.recs.Put(rec)
}

// Records returns the held records in capture order.
func (fr *FlightRecorder) Records() []FlightRecord { return fr.recs.Snapshot() }

// Dump writes the held records human-readably, newest last.
func (fr *FlightRecorder) Dump(w io.Writer) error {
	recs := fr.Records()
	if len(recs) == 0 {
		_, err := fmt.Fprintln(w, "flight recorder: no records")
		return err
	}
	for _, rec := range recs {
		if _, err := fmt.Fprintf(w, "=== flight record %d: %s at %v ===\n", rec.Seq, rec.Reason, rec.At); err != nil {
			return err
		}
		dev := ""
		if rec.Dev != 0 {
			dev = fmt.Sprintf("dev=%d ", rec.Dev)
		}
		if rec.Reason != "reset" {
			req := ""
			if rec.ReqID != 0 {
				req = fmt.Sprintf(" req=%d", rec.ReqID)
			}
			fmt.Fprintf(w, "%sfn=%d q=%d op=%s id=%d%s lba=%d n=%d status=%d\n",
				dev, rec.Fn, rec.Q, rec.Op, rec.ID, req, rec.LBA, rec.Count, rec.Status)
		} else {
			fmt.Fprintf(w, "%sfn=%d\n", dev, rec.Fn)
		}
		if s := rec.Span; s != nil {
			fmt.Fprintf(w, "span: start=%v end=%v retries=%d phases=%d\n", s.Start, s.End, s.Retries, len(s.Phases))
			for _, ph := range s.Phases {
				tag := ""
				if ph.Tag != "" {
					tag = "(" + ph.Tag + ")"
				}
				fmt.Fprintf(w, "  %-10s chunk=%-3d [%v .. %v] %v\n", ph.Name+tag, ph.Chunk, ph.Start, ph.End, ph.End-ph.Start)
			}
		}
		if len(rec.Events) > 0 {
			fmt.Fprintf(w, "last %d device events:\n", len(rec.Events))
			for _, e := range rec.Events {
				fmt.Fprintf(w, "  %s\n", e.String())
			}
		}
	}
	return nil
}

// captureFlight snapshots error context for a failed request (r non-nil) or
// a function-level reset (r nil, fn the reset function's index).
func (o *Observer) captureFlight(at sim.Time, fn int, r *core.Request, reason string) {
	rec := FlightRecord{At: at, Reason: reason, Fn: fn, Dev: o.dev}
	if r != nil {
		rec.Q = r.Queue()
		rec.Op = ring.OpName(r.Op)
		rec.ID = r.ID
		rec.ReqID = r.ReqID
		rec.LBA = r.LBA
		rec.Count = r.Count
		rec.Status = r.Status()
		if rt, _ := r.Tel.(*reqTel); rt != nil {
			rec.Span = rt.span
		}
	}
	o.Flight.capture(rec, o.Events)
}
