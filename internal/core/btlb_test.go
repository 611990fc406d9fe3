package core

import (
	"testing"

	"nesc/internal/extent"
)

// Direct unit tests for the BTLB's invalidation primitives: the global
// flush (PF BTLBFlush register), the per-function flush (VF teardown), and
// the ranged invalidation the hypervisor issues after a CoW break.

func filledBTLB() *btlb {
	b := newBTLB(8)
	b.insert(1, extent.Run{Logical: 0, Physical: 100, Count: 10})
	b.insert(1, extent.Run{Logical: 50, Physical: 500, Count: 10})
	b.insert(2, extent.Run{Logical: 0, Physical: 900, Count: 10})
	return b
}

func hit(b *btlb, fn int, vlba uint64) bool {
	_, _, ok := b.lookup(fn, vlba)
	return ok
}

func TestBTLBFlushClearsAllFunctions(t *testing.T) {
	b := filledBTLB()
	b.flush()
	for _, c := range []struct {
		fn   int
		vlba uint64
	}{{1, 0}, {1, 55}, {2, 5}} {
		if hit(b, c.fn, c.vlba) {
			t.Fatalf("fn %d vlba %d survived flush", c.fn, c.vlba)
		}
	}
	// The cache still works after a flush.
	b.insert(3, extent.Run{Logical: 7, Physical: 70, Count: 1})
	if !hit(b, 3, 7) {
		t.Fatal("insert after flush missed")
	}
}

func TestBTLBFlushFnSparesOtherFunctions(t *testing.T) {
	b := filledBTLB()
	b.invalidateRange(1, 0, 0)
	if hit(b, 1, 0) || hit(b, 1, 55) {
		t.Fatal("a whole-function invalidation left the function's entries")
	}
	if !hit(b, 2, 5) {
		t.Fatal("a whole-function invalidation clobbered another function")
	}
}

func TestBTLBInvalidateRangeIsTargeted(t *testing.T) {
	b := filledBTLB()
	// [5, 7) overlaps only fn 1's first extent.
	if n := b.invalidateRange(1, 5, 2); n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	if hit(b, 1, 0) {
		t.Fatal("overlapped entry survived")
	}
	if !hit(b, 1, 55) {
		t.Fatal("non-overlapping entry of same fn dropped")
	}
	if !hit(b, 2, 5) {
		t.Fatal("other function's entry dropped")
	}
	// A disjoint range invalidates nothing.
	if n := b.invalidateRange(1, 200, 50); n != 0 {
		t.Fatalf("disjoint range invalidated %d entries", n)
	}
	// Boundary: range ending exactly at an extent start does not overlap it.
	if n := b.invalidateRange(1, 40, 10); n != 0 {
		t.Fatalf("touching-but-disjoint range invalidated %d entries", n)
	}
	// Count 0 degenerates to a whole-function flush.
	if n := b.invalidateRange(1, 0, 0); n != 1 {
		t.Fatalf("count-0 invalidation cleared %d entries, want the remaining 1", n)
	}
	if hit(b, 1, 55) {
		t.Fatal("count-0 invalidation left an entry")
	}
	if !hit(b, 2, 5) {
		t.Fatal("count-0 invalidation crossed functions")
	}
}

func TestBTLBLookupReportsProtection(t *testing.T) {
	b := newBTLB(2)
	b.insert(1, extent.Run{Logical: 0, Physical: 10, Count: 4, Flags: extent.FlagProtected})
	b.insert(1, extent.Run{Logical: 4, Physical: 20, Count: 4})
	if _, prot, ok := b.lookup(1, 2); !ok || !prot {
		t.Fatalf("protected extent lookup = prot %v, ok %v", prot, ok)
	}
	if _, prot, ok := b.lookup(1, 6); !ok || prot {
		t.Fatalf("plain extent lookup = prot %v, ok %v", prot, ok)
	}
}
