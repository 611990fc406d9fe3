//go:build go1.23

package sim

import "iter"

// Proc is a simulation process: a coroutine (iter.Pull) of the goroutine
// that drives the engine. Resuming it runs it, synchronously, until it next
// blocks or returns, so at any moment either the engine or exactly one
// process runs. A process blocks only through the kernel primitives (Sleep,
// Wait, FIFO.Pop, Semaphore.Acquire, ...), each of which parks the coroutine
// and returns control to whoever resumed it.
//
// This makes process code look like ordinary sequential software: guest
// kernels, hypervisor interrupt handlers, and device pipeline stages are all
// written as plain loops over blocking calls.
type Proc struct {
	eng  *Engine
	name string

	run   func() (struct{}, bool) // resume: returns when the process parks or ends
	stop  func()                  // kill: returns when the process has unwound
	yield func(struct{}) bool     // park: false means killed

	prev, next *Proc // Engine.procs ring

	waitEarly, waitParked bool   // progress of the Wait in flight
	done                  func() // p.waitDone, bound once
}

// procKilled is the panic that unwinds a killed process.
type procKilled struct{}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Go spawns a new process executing fn. The process starts at the current
// virtual time (after already-pending events at this timestamp). When fn
// returns the process disappears. If fn panics, the panic continues in the
// code that resumed the process — for a scheduled resume, the caller of
// Engine.Run or Step.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, prev: e.procs.prev, next: &e.procs}
	p.prev.next, e.procs.prev = p, p
	p.done = p.waitDone
	p.run, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.prev.next, p.next.prev = p.next, p.prev // leave the live list
			if r := recover(); r != nil {
				if _, killed := r.(procKilled); !killed {
					panic(r)
				}
			}
		}()
		fn(p)
	})
	e.After(0, p.resume)
	return p
}

// resume transfers control to the process and returns when it parks again or
// terminates.
func (p *Proc) resume() { p.run() }

// park returns control to the resumer and blocks until resumed. Must be
// called from process context. A killed process unwinds from here; a blocking
// call made by one of its deferred cleanups lands here again and keeps
// unwinding.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Sleep suspends the process for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	p.eng.After(d, p.resume)
	p.park()
}

// Yield parks the process and reschedules it at the current time, letting
// other events and processes at this timestamp run first.
func (p *Proc) Yield() {
	p.eng.After(0, p.resume)
	p.park()
}

// Wait adapts a callback-style asynchronous operation to process style.
// start must initiate the operation and arrange for done to be invoked
// exactly once from engine context when the operation completes. Wait blocks
// the process until then. done may also be invoked synchronously from within
// start. done is the same func on every call, so only start can allocate.
func (p *Proc) Wait(start func(done func())) {
	p.waitEarly, p.waitParked = false, false
	start(p.done)
	if !p.waitEarly {
		p.waitParked = true
		p.park()
	}
}

func (p *Proc) waitDone() {
	if !p.waitParked {
		p.waitEarly = true // called inside start: Wait will not park
		return
	}
	p.resume()
}

// Signal is a single-use wakeup another party completes. Zero value is ready
// for use after NewSignal.
type Signal struct {
	eng   *Engine
	fired bool
	wait  []func()
}

// NewSignal returns a signal bound to engine e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Fire marks the signal complete and wakes every waiter. Firing twice is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.wait {
		w()
	}
	s.wait = nil
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Await blocks the process until the signal fires (returns immediately if it
// already has).
func (s *Signal) Await(p *Proc) {
	if s.fired {
		return
	}
	p.Wait(func(done func()) {
		s.wait = append(s.wait, func() { s.eng.After(0, done) })
	})
}

// AwaitTimeout blocks the process until the signal fires or d elapses,
// reporting whether the signal had fired by the time the process resumed.
// A non-positive d waits without a deadline. The deadline event stays in the
// engine's queue until it expires (a no-op if the signal won), so timeouts
// should be armed only where recovery genuinely needs them.
func (s *Signal) AwaitTimeout(p *Proc, d Time) bool {
	if s.fired {
		return true
	}
	if d <= 0 {
		s.Await(p)
		return true
	}
	p.Wait(func(done func()) {
		resumed := false
		wake := func() {
			if resumed {
				return
			}
			resumed = true
			s.eng.After(0, done)
		}
		s.wait = append(s.wait, wake)
		s.eng.After(d, wake)
	})
	return s.fired
}

// WaitGroup counts outstanding operations and wakes waiters at zero, like
// sync.WaitGroup but in virtual time.
type WaitGroup struct {
	eng  *Engine
	n    int
	wait []func()
}

// NewWaitGroup returns a wait group bound to engine e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{eng: e} }

// Add increments the outstanding-operation count by delta.
func (w *WaitGroup) Add(delta int) { w.n += delta }

// Done decrements the count; at zero all waiters wake.
func (w *WaitGroup) Done() {
	w.n--
	if w.n < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if w.n == 0 {
		waiters := w.wait
		w.wait = nil
		for _, fn := range waiters {
			fn()
		}
	}
}

// WaitFor blocks the process until the count reaches zero.
func (w *WaitGroup) WaitFor(p *Proc) {
	if w.n == 0 {
		return
	}
	p.Wait(func(done func()) {
		w.wait = append(w.wait, func() { w.eng.After(0, done) })
	})
}
