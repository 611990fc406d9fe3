package hostmem

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refAllocator is the allocator as it was before Alloc and Free edited the
// free list in place, kept verbatim as the reference model: first-fit over a
// list it rebuilds on every Alloc and re-sorts and re-coalesces on every
// Free. Placement is part of the determinism contract (node addresses land in
// device registers), so the in-place allocator must agree with it address for
// address.
type refAllocator struct {
	free       []region
	allocs     map[Addr]int64
	AllocBytes int64
}

func (m *refAllocator) Alloc(size, align int64) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("hostmem: alloc of %d bytes", size)
	}
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("hostmem: alignment %d not a power of two", align)
	}
	for i, r := range m.free {
		base := (r.base + align - 1) &^ (align - 1)
		pad := base - r.base
		if pad+size > r.size {
			continue
		}
		// Carve [base, base+size) out of r.
		var repl []region
		if pad > 0 {
			repl = append(repl, region{base: r.base, size: pad})
		}
		if rest := r.size - pad - size; rest > 0 {
			repl = append(repl, region{base: base + size, size: rest})
		}
		m.free = append(m.free[:i], append(repl, m.free[i+1:]...)...)
		m.allocs[base] = size
		m.AllocBytes += size
		return base, nil
	}
	return 0, fmt.Errorf("hostmem: out of memory allocating %d bytes (align %d)", size, align)
}

func (m *refAllocator) Free(addr Addr) error {
	size, ok := m.allocs[addr]
	if !ok {
		return fmt.Errorf("hostmem: free of unallocated address %#x", addr)
	}
	delete(m.allocs, addr)
	m.AllocBytes -= size
	m.free = append(m.free, region{base: addr, size: size})
	sort.Slice(m.free, func(i, j int) bool { return m.free[i].base < m.free[j].base })
	// Coalesce.
	out := m.free[:1]
	for _, r := range m.free[1:] {
		last := &out[len(out)-1]
		if last.base+last.size == r.base {
			last.size += r.size
		} else {
			out = append(out, r)
		}
	}
	m.free = out
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestAllocatorMatchesReferenceModel drives the allocator and the reference
// model through one seeded sequence that fills the memory to exhaustion and
// drains it again several times, and holds every step to the same address or
// the same error, and the two free lists equal at the end of every phase.
//
// ≈ 14k blocks fit in 4 MB and an allocating phase nets +20k; that is the full
// run, behind `make hostmem-long` (alloc_long_test.go). This one keeps the
// ratio at an eighth of the size, because the model's cost per step grows with
// the free list.
func TestAllocatorMatchesReferenceModel(t *testing.T) {
	allocatorMatchesReferenceModel(t, 512<<10, 40_000, 5_000)
}

func allocatorMatchesReferenceModel(t *testing.T, size int64, steps, phase int) {
	m := New(size)
	ref := &refAllocator{free: slices.Clone(m.free), allocs: make(map[Addr]int64)}
	rng := rand.New(rand.NewSource(18))
	var live, dead []Addr
	failed := 0
	for step := 0; step < steps; step++ {
		// Even phases mostly allocate, odd phases mostly free.
		allocBias := 75
		if step/phase%2 == 1 {
			allocBias = 25
		}
		switch r := rng.Intn(100); {
		case r < 2:
			// A double free or a free of an address never handed out.
			addr := Addr(rng.Int63n(size))
			if len(dead) > 0 && rng.Intn(2) == 0 {
				addr = dead[rng.Intn(len(dead))]
			}
			if _, isLive := ref.allocs[addr]; isLive {
				continue
			}
			got, want := m.Free(addr), ref.Free(addr)
			if got == nil || errText(got) != errText(want) {
				t.Fatalf("step %d: Free(%#x) of a dead address = %v, model %v", step, addr, got, want)
			}
		case r < allocBias || len(live) == 0:
			n, align := int64(rng.Intn(600)+1), int64(1)<<rng.Intn(8)
			got, gerr := m.Alloc(n, align)
			want, werr := ref.Alloc(n, align)
			if got != want || errText(gerr) != errText(werr) {
				t.Fatalf("step %d: Alloc(%d, %d) = %#x, %v; model %#x, %v", step, n, align, got, gerr, want, werr)
			}
			if gerr != nil {
				failed++
				continue
			}
			live = append(live, got)
		default:
			i := rng.Intn(len(live))
			addr := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			dead = append(dead, addr)
			if got, want := m.Free(addr), ref.Free(addr); got != nil || want != nil {
				t.Fatalf("step %d: Free(%#x) = %v, model %v", step, addr, got, want)
			}
		}
		if (step+1)%phase == 0 || step == steps-1 {
			if !slices.Equal(m.free, ref.free) {
				t.Fatalf("step %d: free lists differ: %d regions, model %d", step, len(m.free), len(ref.free))
			}
			if m.AllocBytes != ref.AllocBytes || m.LiveAllocs() != len(ref.allocs) {
				t.Fatalf("step %d: %d bytes in %d allocations, model %d in %d", step, m.AllocBytes, m.LiveAllocs(), ref.AllocBytes, len(ref.allocs))
			}
		}
	}
	if failed == 0 {
		t.Fatal("the sequence never exhausted the memory: the failure path went unchecked")
	}
	for i := 1; i < len(m.free); i++ {
		if p, r := m.free[i-1], m.free[i]; p.base+p.size >= r.base {
			t.Fatalf("free list not sorted and coalesced at %d: %+v then %+v", i, p, r)
		}
	}
}

// fragmented returns a memory whose free list is the given number of
// node-sized holes (every other block of a run of allocations freed) and the
// tail. The first hole sits at address 64.
func fragmented(tb testing.TB, holes int) *Memory {
	m := New(int64(holes)*2*248 + 1<<16)
	var addrs []Addr
	for i := 0; i < holes*2; i++ {
		addrs = append(addrs, m.MustAlloc(248, 8))
	}
	for i := 0; i < len(addrs); i += 2 {
		if err := m.Free(addrs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// Allocation ceilings, in the style of internal/sim/alloc_test.go: on a
// fragmented free list the steady state of Alloc+Free allocates nothing,
// whichever of the four carve shapes and four merge shapes it takes. Every
// case is first-fit into the hole at 64.
func TestAllocFreeAllocatesNothing(t *testing.T) {
	m := fragmented(t, 300)
	regions := len(m.free)
	if regions < 256 {
		t.Fatalf("free list has %d regions, want >= 256", regions)
	}
	for _, tc := range []struct {
		name        string
		size, align int64
		delta       int // free-list length while the block is held
	}{
		{"whole hole: delete, then insert", 248, 8, -1},
		{"front of the hole: replace, then merge with next", 100, 8, 0},
		{"back of the hole: shrink, then merge with previous", 184, 128, 0},
		{"middle of the hole: split, then merge with both", 40, 128, +1},
	} {
		body := func() {
			a, err := m.Alloc(tc.size, tc.align)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.free) != regions+tc.delta {
				t.Fatalf("%s: %d regions while held, want %d", tc.name, len(m.free), regions+tc.delta)
			}
			if err := m.Free(a); err != nil {
				t.Fatal(err)
			}
		}
		body()
		if got := testing.AllocsPerRun(200, body); got != 0 {
			t.Errorf("%s: Alloc+Free allocates %v per call, want 0", tc.name, got)
		}
	}
}
