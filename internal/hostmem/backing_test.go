package hostmem

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestBackingMatchesFlatMemory drives a Memory and one flat []byte of the same
// size through a seeded mix of everything a caller can do — allocate, free,
// write/zero/read anywhere (across live allocations and arena boundaries),
// write through slices taken at Alloc and kept — and holds the lazy backing to
// the flat model: every read equal, every fresh allocation holding the stale
// bytes the flat memory has there, and no retained slice of a live allocation
// ever detached from memory.
func TestBackingMatchesFlatMemory(t *testing.T) {
	const memSize = 12 << 20 // a dozen grains: arenas meet, straddle and get carved over
	type held struct {
		size  int64
		slice []byte
	}
	flat := make([]byte, memSize)
	scratch := make([]byte, 3<<20)
	for seed := int64(1); seed <= 20; seed++ {
		clear(flat)
		m, rng := New(memSize), rand.New(rand.NewSource(seed))
		live, addrs := map[Addr]held{}, []Addr(nil)
		// span picks a range anywhere: mostly short, one in 32 up to max.
		span := func(max int64) (Addr, int64) {
			n := 1 + rng.Int63n(8<<10)
			if rng.Intn(32) == 0 {
				n = 1 + rng.Int63n(max)
			}
			return rng.Int63n(memSize - n + 1), n
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 25:
				n := 1 + rng.Int63n(4096)
				switch rng.Intn(8) {
				case 0:
					n = 1 + rng.Int63n(3*grain) // larger than a grain
				case 1:
					n = 1 + rng.Int63n(256<<10)
				}
				addr, err := m.Alloc(n, []int64{0, 1, 64, 4096}[rng.Intn(4)])
				if err != nil {
					continue
				}
				s, err := m.Slice(addr, n)
				if err != nil {
					t.Fatalf("seed %d step %d: Slice of a fresh allocation [%#x, +%d): %v", seed, step, addr, n, err)
				}
				if !bytes.Equal(s, flat[addr:addr+n]) {
					t.Fatalf("seed %d step %d: fresh allocation [%#x, +%d) does not hold what memory held there", seed, step, addr, n)
				}
				live[addr], addrs = held{n, s}, append(addrs, addr)
			case r < 40 && len(addrs) > 0:
				i := rng.Intn(len(addrs))
				if err := m.Free(addrs[i]); err != nil {
					t.Fatal(err)
				}
				delete(live, addrs[i]) // its slice is dead now
				addrs[i] = addrs[len(addrs)-1]
				addrs = addrs[:len(addrs)-1]
			case r < 60:
				addr, n := span(grain + grain/2)
				rng.Read(scratch[:n])
				if err := m.Write(addr, scratch[:n]); err != nil {
					t.Fatal(err)
				}
				copy(flat[addr:], scratch[:n])
			case r < 65:
				addr, n := span(grain + grain/2)
				if err := m.Zero(addr, n); err != nil {
					t.Fatal(err)
				}
				clear(flat[addr : addr+n])
			case r < 80 && len(addrs) > 0:
				addr := addrs[rng.Intn(len(addrs))]
				h := live[addr]
				off := rng.Int63n(h.size)
				n := 1 + rng.Int63n(min(h.size-off, 8<<10))
				rng.Read(h.slice[off : off+n])
				copy(flat[addr+off:], h.slice[off:off+n])
			default:
				addr, n := span(2 << 20)
				if err := m.Read(addr, scratch[:n]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(scratch[:n], flat[addr:addr+n]) {
					t.Fatalf("seed %d step %d: Read [%#x, +%d) differs from the flat memory", seed, step, addr, n)
				}
			}
			if step%250 == 249 {
				for addr, h := range live {
					if !bytes.Equal(h.slice, flat[addr:addr+h.size]) {
						t.Fatalf("seed %d step %d: the slice kept of live allocation [%#x, +%d) went stale", seed, step, addr, h.size)
					}
				}
			}
		}
		if err := m.Read(0, scratch[:1<<20]); err != nil || !bytes.Equal(scratch[:1<<20], flat[:1<<20]) {
			t.Fatalf("seed %d: the first megabyte differs at the end (%v)", seed, err)
		}
	}
}

func TestNeverWrittenMemoryReadsZeroAndBacksNothing(t *testing.T) {
	m := New(512 << 20)
	p := bytes.Repeat([]byte{0xAA}, 8192)
	if err := m.Read(100<<20, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, 8192)) {
		t.Fatal("never-written memory does not read as zero")
	}
	if v, err := m.ReadU64(300 << 20); err != nil || v != 0 {
		t.Fatalf("ReadU64 of never-written memory = %#x, %v", v, err)
	}
	if err := m.Zero(64, m.Size()-64); err != nil {
		t.Fatal(err)
	}
	if len(m.arenas) != 0 {
		t.Fatalf("reads and a Zero of never-written memory backed %d arenas", len(m.arenas))
	}
}

func TestSliceAcrossTwoArenasIsAnError(t *testing.T) {
	m := New(16 << 20)
	// Two arenas that touch at 2 MB: the second write's gap ends where the
	// first write's arena begins.
	if err := m.Write(2<<20, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1<<20, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Slice(2<<20-8, 16); err == nil {
		t.Fatal("Slice across two arenas succeeded")
	}
	if _, err := m.Slice(3<<20, 2<<20); err == nil {
		t.Fatal("Slice from an arena into unbacked memory succeeded")
	}
	// Reads, writes and zeroes of the same ranges walk the arenas instead.
	if err := m.Write(2<<20-8, bytes.Repeat([]byte{7}, 16)); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(2<<20-4, 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := m.Read(2<<20-8, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{7, 7, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7, 7}; !bytes.Equal(got, want) {
		t.Fatalf("across the boundary: % x, want % x", got, want)
	}
	// A wholly unbacked range is backed by the Slice itself.
	s, err := m.Slice(8<<20, 4096)
	if err != nil || len(s) != 4096 {
		t.Fatalf("Slice of unbacked memory: %d bytes, %v", len(s), err)
	}
	s[0] = 9
	if v, _ := m.ReadU32(8 << 20); v != 9<<24 {
		t.Fatalf("a write through a Slice of once-unbacked memory reads back %#x", v)
	}
}

func TestAllocationsAreContiguous(t *testing.T) {
	m := New(64 << 20)
	small := m.MustAlloc(4096, 0)
	keep, err := m.Slice(small, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Larger than the grain: starts inside the first arena, ends far past it.
	big := m.MustAlloc(3*grain+104, 0)
	// Stale bytes where the next allocation will straddle the newest arena's end.
	next := big + 3*grain + 104
	stale := bytes.Repeat([]byte{0x5A}, 2*grain)
	if err := m.Write(next, stale[:grain/2]); err != nil {
		t.Fatal(err)
	}
	straddler := m.MustAlloc(2*grain, 0)
	for _, a := range []struct {
		addr Addr
		n    int64
	}{{big, 3*grain + 104}, {straddler, 2 * grain}} {
		s, err := m.Slice(a.addr, a.n)
		if err != nil || int64(len(s)) != a.n {
			t.Fatalf("allocation [%#x, +%d): Slice %d bytes, %v", a.addr, a.n, len(s), err)
		}
		s[0], s[a.n-1] = 1, 2
		var first, last [1]byte
		if m.Read(a.addr, first[:]) != nil || m.Read(a.addr+a.n-1, last[:]) != nil || first[0] != 1 || last[0] != 2 {
			t.Fatalf("allocation [%#x, +%d) is not one live view", a.addr, a.n)
		}
	}
	if straddler != next {
		t.Fatalf("the straddling allocation sits at %#x, want %#x", straddler, next)
	}
	s, _ := m.Slice(straddler, 2*grain)
	if !bytes.Equal(s[1:grain/2], stale[1:grain/2]) || s[grain/2] != 0 {
		t.Fatal("the straddling allocation lost the bytes memory held there")
	}
	// The first allocation's slice is still memory.
	keep[10] = 0x77
	var b [1]byte
	if m.Read(small+10, b[:]) != nil || b[0] != 0x77 {
		t.Fatal("a slice taken before later allocations carved new arenas went stale")
	}
}

// Allocation ceilings in the style of internal/sim/alloc_test.go: host memory
// costs what is touched, and an access inside one allocation costs nothing.
func TestBackingAllocations(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(512 << 20)
	addr := m.MustAlloc(4096, 0)
	if err := m.Write(addr, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(grain+64<<10); got > max {
		t.Errorf("a 512 MB memory with one 4 KB allocation written allocated %d bytes, ceiling %d", got, max)
	}
	p := make([]byte, 4096)
	if n := testing.AllocsPerRun(200, func() { m.Write(addr, p); m.Read(addr, p); m.ReadU64(addr); m.WriteU32(addr, 1) }); n != 0 {
		t.Errorf("Write+Read of 4 KB and the typed accessors inside one allocation allocate %v, want 0", n)
	}
}
