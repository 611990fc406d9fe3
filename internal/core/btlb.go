package core

import "nesc/internal/extent"

// btlb is the block translation lookaside buffer (paper §V-B): a small
// fully-associative cache of recently used extents with FIFO replacement.
// With the paper's 8 entries it can hold "at least the last mapping for
// each of the last 8 VFs it serviced". An entry caches a whole extent, so
// one fill covers every block of the extent — the source of the high hit
// rates on sequential workloads.
type btlb struct {
	entries []btlbEntry
	next    int // FIFO replacement cursor
	// flushes and invs (per function) count invalidations: see gen.
	flushes uint64
	invs    map[int]uint64
}

type btlbEntry struct {
	valid bool
	fnIdx int
	run   extent.Run // vLBA range -> pLBA base
}

func newBTLB(n int) *btlb {
	if n < 0 {
		n = 0
	}
	return &btlb{entries: make([]btlbEntry, n), invs: make(map[int]uint64)}
}

// gen moves with every invalidation of fnIdx's entries (walk rechecks it).
func (b *btlb) gen(fnIdx int) uint64 { return b.flushes + b.invs[fnIdx] }

// lookup translates vlba for function fnIdx, reporting a miss when no valid
// entry covers it. protected reports whether the covering extent is marked
// write-protected (CoW shared): a write hitting such an entry must take the
// fault path instead of using the cached translation.
func (b *btlb) lookup(fnIdx int, vlba uint64) (plba uint64, protected, ok bool) {
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.fnIdx == fnIdx && vlba >= e.run.Logical && vlba < e.run.End() {
			return e.run.Physical + (vlba - e.run.Logical), e.run.Protected(), true
		}
	}
	return 0, false, false
}

// insert caches an extent, evicting the oldest entry.
func (b *btlb) insert(fnIdx int, run extent.Run) {
	if len(b.entries) == 0 {
		return
	}
	// Avoid duplicate entries for the same extent.
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.fnIdx == fnIdx && e.run == run {
			return
		}
	}
	b.entries[b.next] = btlbEntry{valid: true, fnIdx: fnIdx, run: run}
	b.next = (b.next + 1) % len(b.entries)
}

// flush invalidates everything (PF BTLBFlush register, used around host-side
// block-level optimizations like deduplication).
func (b *btlb) flush() {
	b.flushes++
	for i := range b.entries {
		b.entries[i].valid = false
	}
}

// invalidateRange invalidates a function's entries overlapping the vLBA
// range [vlba, vlba+count). The hypervisor issues this after a CoW break so
// stale protected (or stale-translation) entries cannot serve the retried
// write; count 0 drops all of the function's. Returns entries invalidated.
func (b *btlb) invalidateRange(fnIdx int, vlba, count uint64) int {
	b.invs[fnIdx]++
	n := 0
	for i := range b.entries {
		e := &b.entries[i]
		if !e.valid || e.fnIdx != fnIdx {
			continue
		}
		if count == 0 || (vlba < e.run.End() && e.run.Logical < vlba+count) {
			e.valid = false
			n++
		}
	}
	return n
}
