package hostmem

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(4096)
	src := []byte("nested storage controller")
	if err := m.Write(100, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(src))
	if err := m.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("read back %q", got)
	}
}

func TestBoundsChecking(t *testing.T) {
	m := New(1024)
	if err := m.Write(1020, make([]byte, 8)); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
	if err := m.Read(-1, make([]byte, 1)); err == nil {
		t.Fatal("negative-address read succeeded")
	}
	if _, err := m.ReadU64(1020); err == nil {
		t.Fatal("out-of-bounds ReadU64 succeeded")
	}
	if _, err := m.Slice(0, 2048); err == nil {
		t.Fatal("oversized Slice succeeded")
	}
	// An address a device took from hostile bytes: addr+len wraps negative.
	if err := m.Read(math.MaxInt64-8, make([]byte, 64)); err == nil {
		t.Fatal("read at an address that wraps the bounds sum succeeded")
	}
}

func TestTypedAccessors(t *testing.T) {
	m := New(1024)
	if err := m.WriteU64(64, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(64)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
	if err := m.WriteU32(72, 0x12345678); err != nil {
		t.Fatal(err)
	}
	v32, err := m.ReadU32(72)
	if err != nil || v32 != 0x12345678 {
		t.Fatalf("ReadU32 = %#x, %v", v32, err)
	}
	// Big-endian layout is observable byte-wise.
	b := make([]byte, 4)
	if err := m.Read(72, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x12 || b[3] != 0x78 {
		t.Fatalf("not big-endian: % x", b)
	}
}

func TestZeroAndSlice(t *testing.T) {
	m := New(1024)
	if err := m.Write(200, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(201, 2); err != nil {
		t.Fatal(err)
	}
	s, err := m.Slice(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 || s[1] != 0 || s[2] != 0 || s[3] != 4 {
		t.Fatalf("after Zero: % x", s)
	}
	// Slice is live: writes show through.
	s[0] = 9
	b := make([]byte, 1)
	if err := m.Read(200, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 9 {
		t.Fatal("Slice is not a live view")
	}
}

func TestAllocNeverReturnsZero(t *testing.T) {
	m := New(1 << 16)
	for i := 0; i < 100; i++ {
		a, err := m.Alloc(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a == 0 {
			t.Fatal("allocator returned NULL address")
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	m := New(1 << 16)
	for _, align := range []int64{1, 8, 64, 256, 4096} {
		a, err := m.Alloc(10, align)
		if err != nil {
			t.Fatal(err)
		}
		if a%align != 0 {
			t.Fatalf("alloc align %d returned %#x", align, a)
		}
	}
	if _, err := m.Alloc(8, 3); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
	if _, err := m.Alloc(0, 8); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
}

func TestAllocFreeCoalescing(t *testing.T) {
	m := New(1 << 12)
	start := m.FreeBytes()
	var addrs []Addr
	for i := 0; i < 8; i++ {
		addrs = append(addrs, m.MustAlloc(128, 8))
	}
	// Free in a scrambled order.
	for _, i := range []int{3, 0, 7, 1, 5, 2, 6, 4} {
		if err := m.Free(addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if m.FreeBytes() != start {
		t.Fatalf("free bytes %d != initial %d after freeing everything", m.FreeBytes(), start)
	}
	if m.LiveAllocs() != 0 {
		t.Fatalf("live allocs = %d", m.LiveAllocs())
	}
	// Coalescing means a full-size allocation fits again.
	if _, err := m.Alloc(start, 1); err != nil {
		t.Fatalf("memory fragmented after frees: %v", err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	m := New(4096)
	a := m.MustAlloc(64, 8)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(a); err == nil {
		t.Fatal("double free accepted")
	}
	if err := m.Free(12345); err == nil {
		t.Fatal("free of never-allocated address accepted")
	}
}

func TestOutOfMemory(t *testing.T) {
	m := New(1024)
	if _, err := m.Alloc(1<<20, 8); err == nil {
		t.Fatal("oversized allocation succeeded")
	}
}

// Property: allocations never overlap each other.
func TestAllocNonOverlapProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(1 << 16)
		type span struct{ base, end Addr }
		var spans []span
		for _, sz := range sizes {
			n := int64(sz%200) + 1
			a, err := m.Alloc(n, 8)
			if err != nil {
				break // exhaustion is fine
			}
			for _, s := range spans {
				if a < s.end && a+n > s.base {
					return false
				}
			}
			spans = append(spans, span{a, a + n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: random alloc/free sequences conserve bytes exactly.
func TestAllocatorConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := New(1 << 18)
	initial := m.FreeBytes()
	live := make(map[Addr]int64)
	var liveBytes int64
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			// free a random live allocation
			var pick Addr
			k := rng.Intn(len(live))
			for a := range live {
				if k == 0 {
					pick = a
					break
				}
				k--
			}
			if err := m.Free(pick); err != nil {
				t.Fatal(err)
			}
			liveBytes -= live[pick]
			delete(live, pick)
		} else {
			n := int64(rng.Intn(512) + 1)
			a, err := m.Alloc(n, 8)
			if err != nil {
				continue
			}
			live[a] = n
			liveBytes += n
		}
		if m.AllocBytes != liveBytes {
			t.Fatalf("iteration %d: AllocBytes=%d, want %d", i, m.AllocBytes, liveBytes)
		}
	}
	for a := range live {
		if err := m.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if m.FreeBytes() != initial {
		t.Fatalf("leaked: free=%d initial=%d", m.FreeBytes(), initial)
	}
}
