// Package slo is the production-telemetry layer over the device's spans and
// detectors: causal request attribution (where did each request's time go,
// and what makes the tail different — attrib.go), per-tenant service-level
// objectives with error-budget accounting and multi-window burn-rate alerts
// (engine.go), and this file's anomaly scoreboard — a bounded ring of
// structured events (SLO burns, quarantines, deadline expirations, admission
// rejects, detector trips, FLRs) cross-linked by request ID to the flight
// recorder. Everything is off by default, nil-safe at every receiver, and
// only ever READS the virtual clock, so arming the layer cannot perturb the
// event schedule.
package slo

import (
	"fmt"
	"io"
	"sync"

	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/stats"
)

// EventKind classifies one scoreboard entry.
type EventKind uint8

// Scoreboard event kinds. The order is stable (kinds are exported as metric
// label values and appear in dumps); append only.
const (
	EventSLOBurn         EventKind = iota // burn-rate alert fired (Value = short-window burn)
	EventBudgetExhausted                  // a tenant's error budget crossed 100% consumed
	EventDetectorTrip                     // a fail-slow detector fired (Value = slowdown ratio)
	EventQuarantine                       // a mirror leg was quarantined (Value = duration ns)
	EventRejoin                           // a quarantined leg rejoined service
	EventDeadline                         // a request/chunk expired its deadline (Note = stage)
	EventAdmitReject                      // admission control fast-failed a request
	EventFLR                              // function-level reset performed
	EventRequestError                     // a request retired with a terminal error status
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"slo-burn", "budget-exhausted", "detector-trip", "quarantine",
	"rejoin", "deadline", "admit-reject", "flr", "request-error",
}

// String renders the kind; unknown values render as EventKind(%d).
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one structured anomaly record. ReqID cross-links the event to
// span and flight-recorder captures of the same request (0 = not
// request-scoped); Dev/VF are -1 when the event is not device- or
// tenant-scoped.
type Event struct {
	Seq   int64     // 1-based emission sequence number
	At    sim.Time  // virtual emission time
	Kind  EventKind //
	Dev   int       // device index, -1 when fabric/tenant-level
	VF    int       // function index (tenant), -1 when none
	ReqID uint64    // causal request id, 0 when none
	Value float64   // kind-specific magnitude (burn rate, ratio, ns)
	Note  string    // short static detail ("mux", "walker", "dtu", ...)
}

// Scoreboard retains the last capacity events in a ring and counts every
// emission by kind. A nil *Scoreboard is a valid disabled board: Emit and
// every query no-op, so instrumented code needs no conditionals. Emission is
// one ring store under a mutex — no allocation.
type Scoreboard struct {
	mu     sync.Mutex
	ring   stats.Ring[Event]
	seq    int64
	counts [numEventKinds]int64
}

// NewScoreboard builds a board holding the last capacity events (min 1).
// With a registry (nil = none) it publishes per-kind emission counters as
// export-time gauges: family nesc_scoreboard_events_total, labelled by kind.
func NewScoreboard(capacity int, reg *metrics.Registry) *Scoreboard {
	b := &Scoreboard{ring: stats.NewRing[Event](capacity)}
	for k := EventKind(0); k < numEventKinds; k++ {
		reg.GaugeFunc("nesc_scoreboard_events_total", "structured anomaly events emitted, by kind",
			metrics.Labels{VF: -1, Q: -1, Op: k.String()},
			func() float64 { return float64(b.Count(k)) })
	}
	return b
}

// Emit records one event, stamping its sequence number. Nil-safe.
func (b *Scoreboard) Emit(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	if int(ev.Kind) < len(b.counts) {
		b.counts[ev.Kind]++
	}
	b.ring.Put(ev)
	b.mu.Unlock()
}

// Total reports every event ever emitted (including overwritten ones).
func (b *Scoreboard) Total() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Count reports how many events of kind k were ever emitted.
func (b *Scoreboard) Count(k EventKind) int64 {
	if b == nil || int(k) >= int(numEventKinds) {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts[k]
}

// Events returns the held events oldest-first (a copy).
func (b *Scoreboard) Events() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Snapshot()
}

// Dump writes the held events human-readably, oldest first.
func (b *Scoreboard) Dump(w io.Writer) error {
	evs := b.Events()
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "scoreboard: no events")
		return err
	}
	for _, ev := range evs {
		line := fmt.Sprintf("#%-4d %10dus  %-16s", ev.Seq, int64(ev.At)/1000, ev.Kind)
		if ev.Dev >= 0 {
			line += fmt.Sprintf(" dev=%d", ev.Dev)
		}
		if ev.VF >= 0 {
			line += fmt.Sprintf(" vf=%d", ev.VF)
		}
		if ev.ReqID != 0 {
			line += fmt.Sprintf(" req=%d", ev.ReqID)
		}
		if ev.Note != "" {
			line += " " + ev.Note
		}
		if ev.Value != 0 {
			line += fmt.Sprintf(" value=%.3g", ev.Value)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
