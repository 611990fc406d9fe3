package hostmem

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestBackingMatchesFlatMemory drives a Memory and one flat []byte of the same
// size through a seeded mix of everything a caller can do — allocate, free,
// write/zero/read anywhere (across live allocations and block boundaries),
// write through slices taken at Alloc and kept — and holds the lazy backing to
// the flat model: every read equal, every fresh allocation holding the stale
// bytes the flat memory has there, and no retained slice of a live allocation
// ever detached from memory.
func TestBackingMatchesFlatMemory(t *testing.T) {
	const memSize = 12 << 20 // a dozen grains: arenas meet, span blocks and get replaced
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
	// Allocating at most a grain backs nothing either: a block is backed at
	// its first write.
	for _, n := range []int64{64, 4096, grain} {
		m.MustAlloc(n, 0)
	}
	if n := backed(m); n != 0 {
		t.Fatalf("reads, a Zero and small allocations of never-written memory backed %d blocks", n)
	}
}

// backed counts the blocks of m that are backed.
func backed(m *Memory) int {
	n := 0
	for _, b := range m.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

func TestSliceAcrossTwoArenasIsAnError(t *testing.T) {
	m := New(16 << 20)
	// Two blocks that touch at 2 MB, each backed by its own first write.
	if err := m.Write(2<<20, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1<<20, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Slice(2<<20-8, 16); err == nil {
		t.Fatal("Slice across two arenas succeeded")
	}
	if _, err := m.Slice(2<<20, 2<<20); err == nil {
		t.Fatal("Slice from an arena into unbacked memory succeeded")
	}
	if _, err := m.Slice(1<<20-8, 16); err == nil {
		t.Fatal("Slice from unbacked memory into an arena succeeded")
	}
	// Reads, writes and zeroes of the same ranges walk the blocks instead.
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
	// A range in unbacked blocks only is backed by the Slice itself, with one
	// arena when it spans blocks.
	for _, r := range []struct{ addr, n int64 }{{8 << 20, 4096}, {10<<20 - 8, 16}} {
		s, err := m.Slice(r.addr, r.n)
		if err != nil || int64(len(s)) != r.n {
			t.Fatalf("Slice of unbacked [%#x, +%d): %d bytes, %v", r.addr, r.n, len(s), err)
		}
		s[0], s[r.n-1] = 9, 9
		if v, _ := m.ReadU32(r.addr); v != 9<<24 {
			t.Fatalf("a write through a Slice of once-unbacked memory reads back %#x", v)
		}
		if v, _ := m.ReadU32(r.addr + r.n - 4); v != 9 {
			t.Fatalf("the last byte of a Slice of once-unbacked memory reads back %#x", v)
		}
	}
}

// TestAllocationsAreContiguous holds Alloc to the block rule: an allocation of
// at most a grain that would straddle a block boundary starts on it, a larger
// one starts on a boundary and holds its last block whole, and each is one
// live view that holds the bytes memory held there.
func TestAllocationsAreContiguous(t *testing.T) {
	m := New(64 << 20)
	small := m.MustAlloc(4096, 0)
	keep, err := m.Slice(small, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Stale bytes where the straddler below will land.
	stale := bytes.Repeat([]byte{0x5A}, 2*grain)
	if err := m.Write(6*grain, stale[:grain/2]); err != nil {
		t.Fatal(err)
	}
	near := m.MustAlloc(grain/2, 0)      // fits before the first boundary
	over := m.MustAlloc(grain/2, 0)      // would straddle it
	big := m.MustAlloc(3*grain+104, 0)   // starts on the next free boundary
	straddler := m.MustAlloc(2*grain, 0) // after big's last block
	tail := m.MustAlloc(grain/2+4096, 0) // fits no gap but big's tail, which is held
	for _, a := range []struct {
		name      string
		got, want Addr
	}{
		{"near", near, small + 4096},
		{"over", over, grain},
		{"big", big, 2 * grain},
		{"straddler", straddler, 6 * grain},
		{"tail", tail, 8 * grain},
	} {
		if a.got != a.want {
			t.Errorf("%s sits at %#x, want %#x", a.name, a.got, a.want)
		}
	}
	for _, a := range []struct {
		addr Addr
		n    int64
	}{{near, grain / 2}, {over, grain / 2}, {big, 3*grain + 104}, {straddler, 2 * grain}, {tail, grain/2 + 4096}} {
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
	s, _ := m.Slice(straddler, 2*grain)
	if !bytes.Equal(s[1:grain/2], stale[1:grain/2]) || s[grain/2] != 0 {
		t.Fatal("the straddling allocation lost the bytes memory held there")
	}
	// The first allocation's slice is still memory.
	keep[10] = 0x77
	var b [1]byte
	if m.Read(small+10, b[:]) != nil || b[0] != 0x77 {
		t.Fatal("a slice taken before later allocations backed new blocks went stale")
	}
	// Freed, big returns its whole blocks to the free list.
	free := m.FreeBytes()
	if err := m.Free(big); err != nil {
		t.Fatal(err)
	}
	if got := m.FreeBytes() - free; got != 4*grain {
		t.Fatalf("freeing big returned %d bytes, want its 4 blocks", got)
	}
}

// TestChurnBacksOnlyTouchedBlocks is a tenant's life in miniature: 240 times,
// keep a 3 KB allocation (a ring) and then allocate, write and free a 128 KB
// one (a bounce), below bytes written 128 KB in before the first round (a
// device may write where nothing is allocated). What the Memory allocates must
// stay within the blocks it touched and one grain. Backing that followed the
// ranges the allocator handed out kept every bounce it had ever made behind
// the ring now in its front, about 30 MB for about 1 MB live.
func TestChurnBacksOnlyTouchedBlocks(t *testing.T) {
	ring, bounce := make([]byte, 3<<10), make([]byte, 128<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(512 << 20)
	if err := m.Write(128<<10, []byte{1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 240; i++ {
		if err := m.Write(m.MustAlloc(int64(len(ring)), 64), ring); err != nil {
			t.Fatal(err)
		}
		a := m.MustAlloc(int64(len(bounce)), 64)
		if err := m.Write(a, bounce); err != nil {
			t.Fatal(err)
		}
		if err := m.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	touched := uint64(backed(m)) * grain
	if got := after.TotalAlloc - before.TotalAlloc; got > touched+grain {
		t.Errorf("240 rounds of churn allocated %d bytes for %d touched, ceiling %d", got, touched, touched+grain)
	}
	runtime.KeepAlive(m)
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
