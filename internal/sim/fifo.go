package sim

// ring is a growable circular queue (capacity a power of two); the zero
// value is empty. Pushing and popping in steady state allocates nothing.
type ring[T any] struct {
	buf     []T
	head, n int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		for i := range r.n {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// FIFO is a bounded first-in-first-out queue connecting processes (or event
// callbacks) in a pipeline. Pop blocks the calling process while the queue is
// empty; Push blocks while it is full, providing natural backpressure between
// pipeline stages. A capacity of 0 means unbounded.
type FIFO[T any] struct {
	eng     *Engine
	cap     int
	items   ring[T]
	getters []func() // parked poppers, FIFO order
	putters []func() // parked pushers, FIFO order
}

// NewFIFO returns a queue bound to engine e with the given capacity
// (0 = unbounded).
func NewFIFO[T any](e *Engine, capacity int) *FIFO[T] {
	return &FIFO[T]{eng: e, cap: capacity}
}

// Len reports the number of queued items.
func (q *FIFO[T]) Len() int { return q.items.n }

// full reports whether a bounded queue is at capacity.
func (q *FIFO[T]) full() bool { return q.cap > 0 && q.items.n >= q.cap }

// TryPush enqueues v if the queue has room, reporting whether it did.
// Safe from event context.
func (q *FIFO[T]) TryPush(v T) bool {
	if q.full() {
		return false
	}
	q.items.push(v)
	q.wakeGetter()
	return true
}

// Push enqueues v, blocking the process while the queue is full.
func (q *FIFO[T]) Push(p *Proc, v T) {
	for q.full() {
		p.Wait(func(done func()) {
			q.putters = append(q.putters, func() { q.eng.After(0, done) })
		})
	}
	q.items.push(v)
	q.wakeGetter()
}

// Pop dequeues the oldest item, blocking the process while the queue is
// empty.
func (q *FIFO[T]) Pop(p *Proc) T {
	for q.items.n == 0 {
		p.Wait(func(done func()) {
			q.getters = append(q.getters, func() { q.eng.After(0, done) })
		})
	}
	v := q.items.pop()
	q.wakePutter()
	return v
}

// TryPop dequeues the oldest item without blocking, reporting whether one
// was available. Safe from event context.
func (q *FIFO[T]) TryPop() (T, bool) {
	if q.items.n == 0 {
		var zero T
		return zero, false
	}
	v := q.items.pop()
	q.wakePutter()
	return v, true
}

func (q *FIFO[T]) wakeGetter() {
	if len(q.getters) == 0 {
		return
	}
	g := q.getters[0]
	q.getters = q.getters[1:]
	g()
}

func (q *FIFO[T]) wakePutter() {
	if len(q.putters) == 0 {
		return
	}
	p := q.putters[0]
	q.putters = q.putters[1:]
	p()
}

// Semaphore is a counting semaphore in virtual time, used to model exclusive
// or limited-parallelism resources (e.g. a filesystem-wide lock, a DMA
// channel count).
type Semaphore struct {
	eng     *Engine
	avail   int
	waiters []func()
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	return &Semaphore{eng: e, avail: n}
}

// Acquire takes one permit, blocking the process until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.avail == 0 {
		p.Wait(func(done func()) {
			s.waiters = append(s.waiters, func() { s.eng.After(0, done) })
		})
	}
	s.avail--
}

// Release returns one permit and wakes a single waiter, if any.
func (s *Semaphore) Release() {
	s.avail++
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w()
	}
}

// Available reports the current permit count.
func (s *Semaphore) Available() int { return s.avail }
