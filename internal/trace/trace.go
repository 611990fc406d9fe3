// Package trace is a lightweight event tracer for the simulated platform: a
// fixed-capacity ring of timestamped device events (request arrival,
// translation, miss, transfer, completion) that costs nothing when disabled
// and never allocates per event once warmed. nescctl's -trace flag dumps it;
// tests use it to assert event ordering.
package trace

import (
	"fmt"
	"io"

	"nesc/internal/sim"
	"nesc/internal/stats"
)

// Kind classifies an event.
type Kind uint8

// Device event kinds, in rough pipeline order.
const (
	KindFetch     Kind = iota // descriptor fetched from a request ring
	KindTranslate             // vLBA translated (BTLB hit or walk)
	KindMiss                  // translation miss latched, host interrupted
	KindRewalk                // host released a stalled walk
	KindTransfer              // chunk moved to/from the medium
	KindComplete              // request completion written
	KindFault                 // injected/observed fault (medium, DMA)
	KindDrop                  // request or completion silently lost
	KindReset                 // function-level reset
	KindVerify                // scrubber OpVerify chunk serviced by the DTU
)

// kindNames must cover every kind above; TestKindStringsExhaustive walks the
// table so an unnamed kind cannot silently render as "".
var kindNames = [...]string{
	KindFetch:     "fetch",
	KindTranslate: "translate",
	KindMiss:      "miss",
	KindRewalk:    "rewalk",
	KindTransfer:  "transfer",
	KindComplete:  "complete",
	KindFault:     "fault",
	KindDrop:      "drop",
	KindReset:     "reset",
	KindVerify:    "verify",
}

// NumKinds is the number of defined event kinds.
const NumKinds = len(kindNames)

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one traced occurrence.
type Event struct {
	At   sim.Time
	Kind Kind
	// Dev is the emitting controller's device ID: every device of a fleet
	// writes into the one ring (0, the primary, renders without a tag).
	Dev int
	// Fn is the function index (0 = PF).
	Fn int
	// LBA is the event's block address (vLBA or pLBA depending on Kind).
	LBA uint64
	// Arg carries kind-specific detail (request ID, status, plba).
	Arg uint64
}

func (e Event) String() string {
	s := fmt.Sprintf("%12v fn%-3d %-9s lba=%-8d arg=%d", e.At, e.Fn, e.Kind, e.LBA, e.Arg)
	if e.Dev != 0 {
		s += fmt.Sprintf(" dev=%d", e.Dev)
	}
	return s
}

// Ring is a fixed-capacity event buffer. A nil *Ring is a valid no-op
// tracer, so call sites need no conditionals beyond the nil check inside
// Emit.
type Ring struct {
	events stats.Ring[Event]
	// Total counts all events ever emitted (including overwritten ones).
	Total int64
}

// NewRing returns a tracer holding the last capacity events.
func NewRing(capacity int) *Ring {
	return &Ring{events: stats.NewRing[Event](capacity)}
}

// Emit records an event. Safe on a nil receiver (no-op).
func (r *Ring) Emit(e Event) {
	if r == nil {
		return
	}
	r.Total++
	r.events.Put(e)
}

// Len reports how many events are currently held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return r.events.Len()
}

// Events returns the held events in chronological order (a copy).
func (r *Ring) Events() []Event { return r.Tail(r.Len()) }

// Tail returns the newest k held events in chronological order (a copy).
func (r *Ring) Tail(k int) []Event {
	if r == nil {
		return nil
	}
	return r.events.Tail(k)
}

// Dump writes the held events, one per line.
func (r *Ring) Dump(w io.Writer) error {
	return r.DumpIf(w, nil)
}

// DumpIf writes the held events that satisfy keep (nil = all), one per line.
// It is the -trace-vf filter's backend: multi-tenant dumps interleave every
// function's events, and keep lets a caller carve out one function's view.
func (r *Ring) DumpIf(w io.Writer, keep func(Event) bool) error {
	for _, e := range r.Events() {
		if keep != nil && !keep(e) {
			continue
		}
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
