// Package sim implements the deterministic discrete-event simulation kernel
// that underpins the NeSC reproduction.
//
// The kernel combines two styles of modeling:
//
//   - Event callbacks: components schedule closures on the Engine at future
//     virtual times (Engine.After / Engine.At). This is the natural style for
//     small hardware state machines.
//   - Processes: sequential code run as coroutines of the engine's goroutine
//     (Engine.Go). A dispatch that resumes a process runs it, on the spot,
//     until it next blocks or returns; at any instant either the engine or
//     exactly one process runs, so process code may touch shared simulation
//     state without locks and the simulation stays fully deterministic.
//     Processes model software (guest kernels, hypervisor handlers,
//     workloads) and pipelined hardware units that are awkward as explicit
//     state machines.
//
// Virtual time is an int64 nanosecond count. The kernel never consults the
// wall clock; given the same inputs a simulation always produces the same
// event order and the same measurements.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a point in (or a span of) virtual time, in nanoseconds.
type Time int64

// Convenient durations of virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point microsecond count.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// BytesTime returns the virtual time needed to move n bytes at the given
// bandwidth (bytes per second). A non-positive bandwidth means "infinitely
// fast" and costs zero time.
func BytesTime(n int64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) / bytesPerSec * float64(Second))
}

type event struct {
	at  Time
	seq int64 // tie-breaker: FIFO among simultaneous events
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return
}

// Engine is the discrete-event simulation executive: a virtual clock plus a
// time-ordered queue of pending events. An Engine is not safe for concurrent
// use: processes are coroutines of the goroutine that calls Run, so only one
// of them or the engine ever runs.
type Engine struct {
	now    Time
	seq    int64
	events eventHeap

	// procs is the sentinel of the ring of live processes, in spawn order.
	procs Proc

	// Stepped counts dispatched events; useful as a progress/cost metric.
	Stepped int64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	e := &Engine{}
	e.procs.prev, e.procs.next = &e.procs, &e.procs
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a modeling bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds of virtual time from now.
// Negative delays are clamped to zero.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	e.Stepped++
	ev.fn()
	return true
}

// Run dispatches events until none remain. Processes blocked on queues or
// semaphores do not keep the simulation alive: when the event queue drains
// the simulation is quiescent and Run returns. A panic in a process surfaces
// here, in the caller of the dispatch that resumed it.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with timestamps <= t and then advances the
// clock to exactly t.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// Idle reports whether the simulation is quiescent: no scheduled events.
// Parked processes may still exist (e.g. device pipelines waiting for work).
func (e *Engine) Idle() bool { return len(e.events) == 0 }

// Shutdown terminates every live process — parked or not yet started — in
// spawn order. stop returns only once its victim has unwound, so deferred
// cleanups, which touch shared simulation state, never interleave. It must
// only be called when the engine is idle (outside Run). After Shutdown the
// engine must not be used again.
func (e *Engine) Shutdown() {
	for p := e.procs.next; p != &e.procs; p = e.procs.next {
		// Unlink p here: a process that never started runs no exit path.
		e.procs.next, p.next.prev = p.next, &e.procs
		p.prev, p.next = p, p
		p.stop()
	}
}
