package stats

// Ring keeps the last size values put into it, overwriting the oldest. It is
// the one bounded "most recent N" store behind the event tracer, the span
// recorder, the anomaly scoreboard, the flight recorder, the attribution
// profile reservoirs and the fail-slow Window. The slots are allocated on the
// first Put, so a ring nothing ever writes to costs only its header. Not safe
// for concurrent use; owners that need it hold their own lock.
type Ring[T any] struct {
	buf  []T
	size int
	next int // slot the next Put fills
	n    int // values held
}

// NewRing returns an empty ring holding the last size values (size >= 1).
func NewRing[T any](size int) Ring[T] {
	if size < 1 {
		size = 1
	}
	return Ring[T]{size: size}
}

// Put stores v, evicting the oldest value when full.
func (r *Ring[T]) Put(v T) {
	if r.buf == nil {
		r.buf = make([]T, r.size)
	}
	r.buf[r.next] = v
	if r.next++; r.next == r.size {
		r.next = 0
	}
	if r.n < r.size {
		r.n++
	}
}

// Len reports how many values are currently held.
func (r *Ring[T]) Len() int { return r.n }

// Allocated reports how many slots exist: 0 until the first Put.
func (r *Ring[T]) Allocated() int { return len(r.buf) }

// Reset forgets every held value but keeps the slots.
func (r *Ring[T]) Reset() { r.next, r.n = 0, 0 }

// Tail returns a copy of the newest k held values (all of them when fewer
// are held), oldest first.
func (r *Ring[T]) Tail(k int) []T {
	if k > r.n {
		k = r.n
	}
	start := r.next - k
	if start >= 0 {
		return append([]T(nil), r.buf[start:r.next]...)
	}
	out := make([]T, 0, k)
	out = append(out, r.buf[r.size+start:]...)
	return append(out, r.buf[:r.next]...)
}

// Snapshot returns a copy of every held value, oldest first.
func (r *Ring[T]) Snapshot() []T { return r.Tail(r.n) }
