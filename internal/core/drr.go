package core

import "math/bits"

// drr is a deficit-round-robin scheduler over the VFs: each scheduling round
// serves a VF up to its QoS weight, and with every weight at the default of 1
// it degenerates to plain round robin. The controller runs two — the
// multiplexer over the per-VF request queues and the DTU over the per-VF
// translated-chunk queues — which differ only in the queue they feed from.
//
// It keeps an active-VF work list: bit idx-1 is set exactly while VF idx's
// feeding queue is non-empty. The bit is set after a push lands (before the
// scheduler's semaphore is released, so a granted permit always finds a set
// bit) and cleared by the scheduler's owner when its pop empties the queue.
// A pick walks set bits cyclically from the cursor, so it costs O(active),
// not O(NumVFs).
type drr struct {
	c      *Controller
	active []uint64
	cursor int // VF index - 1 the next pick starts at
	// rounds counts completed credit-refill rounds (see admit).
	rounds uint64
	// slot is the element of Function.credit this scheduler spends.
	slot int
}

// Credit slots, one per scheduler.
const (
	drrMux = iota
	drrDTU
)

func newDRR(c *Controller, slot int) drr {
	return drr{c: c, slot: slot, active: make([]uint64, (c.P.NumVFs+63)/64)}
}

// note joins VF f to the active list: work landed in its feeding queue.
func (d *drr) note(f *Function) { d.active[(f.idx-1)>>6] |= 1 << uint((f.idx-1)&63) }

// idle drops VF f from the active list: its feeding queue drained.
func (d *drr) idle(f *Function) { d.active[(f.idx-1)>>6] &^= 1 << uint((f.idx-1)&63) }

// admit gives a VF materialized mid-run the credit an always-present idle VF
// would hold: its weight once any refill round has run, zero before.
func (d *drr) admit(f *Function) {
	if d.rounds > 0 {
		f.credit[d.slot] = f.weight
	}
}

// pick spends one credit of the next active VF that has any and returns that
// VF; the caller pops its feeding queue. The cursor stays ON the picked VF, so
// the round resumes there while its credit lasts. When every backlogged VF is
// out of credit a new scheduling round starts — every materialized VF's credit
// returns to its weight — and the scan repeats once. Nil means no VF is
// active; a fruitless scan leaves the cursor where it was.
func (d *drr) pick() *Function {
	n := d.c.P.NumVFs
	for pass := 0; pass < 2; pass++ {
		for _, span := range [2][2]int{{d.cursor, n}, {0, d.cursor}} {
			for b := nextSetBit(d.active, span[0], span[1]); b >= 0; b = nextSetBit(d.active, b+1, span[1]) {
				if f := d.c.vfAt(b); f != nil && f.credit[d.slot] > 0 {
					f.credit[d.slot]--
					d.cursor = b
					return f
				}
			}
		}
		d.rounds++
		d.c.forEachVF(func(f *Function) { f.credit[d.slot] = f.weight })
	}
	return nil
}

// nextSetBit returns the first set bit position in [from, limit), or -1.
func nextSetBit(bm []uint64, from, limit int) int {
	if from >= limit {
		return -1
	}
	w := from >> 6
	cur := bm[w] &^ ((1 << uint(from&63)) - 1)
	for {
		if cur != 0 {
			b := w<<6 + bits.TrailingZeros64(cur)
			if b >= limit {
				return -1
			}
			return b
		}
		w++
		if w<<6 >= limit || w >= len(bm) {
			return -1
		}
		cur = bm[w]
	}
}

// JainFairness computes Jain's fairness index (Σx)²/(n·Σx²) over the block
// counts of the materialized VFs that served any traffic; 1 when idle.
func (c *Controller) JainFairness() float64 {
	var sum, sumSq, n float64
	c.forEachVF(func(f *Function) {
		if x := float64(f.Blocks); x > 0 {
			sum, sumSq, n = sum+x, sumSq+x*x, n+1
		}
	})
	if n == 0 {
		return 1
	}
	return sum * sum / (n * sumSq)
}
