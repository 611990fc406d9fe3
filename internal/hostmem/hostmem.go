// Package hostmem models host physical memory (DRAM) as seen by the NeSC
// device over PCIe: a flat byte-addressable space with a simple region
// allocator. Extent trees, DMA ring buffers, trampoline buffers, and guest
// RAM windows all live here, so the device-side extent walker reads exactly
// the bytes the hypervisor serialized — the same contract the hardware DMA
// walk has.
//
// Address 0 is reserved as the NULL pointer: the extent-tree format uses a
// zero child pointer to mark pruned subtrees, so no allocation may start at
// address zero.
package hostmem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Addr is a host physical address.
type Addr = int64

// Memory is a flat host physical memory with a first-fit region allocator.
// Only the backing is lazy: an address no arena backs has never been written
// and reads as zero. Every live allocation lies inside one arena (Alloc sees
// to it while the range is still free) and an arena's bytes never move, so a
// Slice of a live allocation is memory until the allocation is freed.
type Memory struct {
	size int64
	// arenas are sorted by base and disjoint; hit indexes the one the last
	// access found, tried before the search.
	arenas []arena
	hit    int
	// free regions, sorted by base and fully coalesced (no two touch). Alloc
	// and Free edit the list in place. Placement is first-fit by ascending
	// base and part of the simulation's determinism contract: allocation
	// addresses end up in device registers and DMA descriptors.
	free []region
	// allocs maps base -> length for Free validation.
	allocs map[Addr]int64

	// AllocBytes tracks live allocated bytes (for pruning experiments).
	AllocBytes int64
}

type region struct {
	base Addr
	size int64
}

// arena is one backing allocation: the bytes of [base, base+len(data)).
type arena struct {
	base Addr
	data []byte
}

func (a arena) end() Addr { return a.base + int64(len(a.data)) }

// grain is how far past the range that needs it a new arena reaches, so that
// a run of small neighbouring allocations shares one.
const grain = 1 << 20

// New returns a memory of the given size. The first 64 bytes are reserved so
// no allocation returns address 0 (the extent-tree NULL pointer).
func New(size int64) *Memory {
	const reserve = 64
	if size <= reserve {
		panic("hostmem: memory too small")
	}
	return &Memory{
		size:   size,
		free:   []region{{base: reserve, size: size - reserve}},
		allocs: make(map[Addr]int64),
	}
}

// Size reports the total memory size in bytes.
func (m *Memory) Size() int64 { return m.size }

// view returns the front of [addr, addr+n): the longest prefix that lies
// inside one arena (its live bytes) or is wholly unbacked (nil), and that
// prefix's length. The arena the last access found is tried first; it holds
// all of most accesses, and then there is no more to check.
func (m *Memory) view(addr Addr, n int64) ([]byte, int64, error) {
	if m.hit < len(m.arenas) {
		a := &m.arenas[m.hit]
		if off := addr - a.base; off >= 0 && n >= 0 && off <= int64(len(a.data))-n {
			return a.data[off : off+n], n, nil
		}
	}
	if addr < 0 || n < 0 || addr > m.size-n { // not addr+n: a hostile addr would wrap it
		return nil, 0, fmt.Errorf("hostmem: access [%#x, %#x) outside memory of %d bytes", addr, addr+n, m.size)
	}
	i := m.find(addr)
	if i == len(m.arenas) {
		return nil, n, nil
	}
	a := m.arenas[i]
	if addr < a.base {
		return nil, min(n, a.base-addr), nil
	}
	m.hit = i
	n = min(n, a.end()-addr)
	return a.data[addr-a.base:][:n], n, nil
}

// find returns the index of the first arena that ends after addr.
func (m *Memory) find(addr Addr) int {
	return sort.Search(len(m.arenas), func(i int) bool { return m.arenas[i].end() > addr })
}

// carve backs [base, base+size) with one arena and returns its bytes. A range
// one arena already holds stays where it is. Otherwise the caller vouches that
// nothing live lies in the range (it is free, or unbacked): a new arena takes
// it over, a grain longer where that reaches only unbacked memory. What older
// arenas held there is copied in, so the range reads as it did, and they keep
// the rest as sub-slices of themselves: no byte outside the range moves.
func (m *Memory) carve(base Addr, size int64) []byte {
	if b, n, _ := m.view(base, size); b != nil && n == size {
		return b
	}
	end := base + size
	i := m.find(base)
	j := i
	for j < len(m.arenas) && m.arenas[j].base < end {
		j++
	}
	limit := min(end+grain, m.size)
	if j < len(m.arenas) {
		limit = min(limit, m.arenas[j].base)
	}
	if j > i && m.arenas[j-1].end() > end {
		limit = end
	}
	fresh := arena{base: base, data: make([]byte, limit-base)}
	repl := []arena{fresh}
	for _, a := range m.arenas[i:j] {
		copy(fresh.data[max(a.base, base)-base:], a.data[max(base-a.base, 0):min(a.end(), end)-a.base])
		if a.base < base {
			repl = slices.Insert(repl, 0, arena{base: a.base, data: a.data[:base-a.base]})
		}
		if a.end() > end {
			repl = append(repl, arena{base: end, data: a.data[end-a.base:]})
		}
	}
	m.arenas = slices.Replace(m.arenas, i, j, repl...)
	return fresh.data[:size]
}

// Read copies len(p) bytes starting at addr into p.
func (m *Memory) Read(addr Addr, p []byte) error {
	for len(p) > 0 {
		b, n, err := m.view(addr, int64(len(p)))
		if err != nil {
			return err
		}
		if b == nil {
			clear(p[:n])
		} else {
			copy(p, b)
		}
		addr, p = addr+n, p[n:]
	}
	return nil
}

// Write copies p into memory starting at addr, backing what of the range was
// not backed yet.
func (m *Memory) Write(addr Addr, p []byte) error {
	for len(p) > 0 {
		b, n, err := m.view(addr, int64(len(p)))
		if err != nil {
			return err
		}
		if b == nil {
			b = m.carve(addr, n)
		}
		copy(b, p)
		addr, p = addr+n, p[n:]
	}
	return nil
}

// Zero clears n bytes starting at addr. Unbacked memory is zero already.
func (m *Memory) Zero(addr Addr, n int64) error {
	for n > 0 {
		b, k, err := m.view(addr, n)
		if err != nil {
			return err
		}
		clear(b)
		addr, n = addr+k, n-k
	}
	return nil
}

// Slice returns the live backing bytes for [addr, addr+n). Mutating the
// returned slice mutates memory; it models zero-copy device access. The range
// must lie inside one arena, as every allocation does, or be wholly unbacked
// (it is backed then). A slice of an allocation is dead once the allocation is
// freed: the allocator may move the range to another arena.
func (m *Memory) Slice(addr Addr, n int64) ([]byte, error) {
	b, k, err := m.view(addr, n)
	switch {
	case err != nil:
		return nil, err
	case k < n:
		return nil, fmt.Errorf("hostmem: slice [%#x, %#x) is not inside one allocation", addr, addr+n)
	case b == nil && n > 0:
		b = m.carve(addr, n)
	}
	return b, nil
}

// Typed big-endian accessors. The NeSC wire format is big-endian so
// serialized structures are unambiguous in hex dumps.

// ReadU64 reads a big-endian uint64 at addr.
func (m *Memory) ReadU64(addr Addr) (uint64, error) {
	var b [8]byte
	err := m.Read(addr, b[:])
	return binary.BigEndian.Uint64(b[:]), err
}

// WriteU64 writes a big-endian uint64 at addr.
func (m *Memory) WriteU64(addr Addr, v uint64) error {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return m.Write(addr, b[:])
}

// ReadU32 reads a big-endian uint32 at addr.
func (m *Memory) ReadU32(addr Addr) (uint32, error) {
	var b [4]byte
	err := m.Read(addr, b[:])
	return binary.BigEndian.Uint32(b[:]), err
}

// WriteU32 writes a big-endian uint32 at addr.
func (m *Memory) WriteU32(addr Addr, v uint32) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return m.Write(addr, b[:])
}

// Alloc reserves size bytes aligned to align (power of two or 1; 0 means 8)
// and returns the base address. First-fit over the free list.
func (m *Memory) Alloc(size, align int64) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("hostmem: alloc of %d bytes", size)
	}
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("hostmem: alignment %d not a power of two", align)
	}
	for i := range m.free {
		r := &m.free[i]
		base := (r.base + align - 1) &^ (align - 1)
		pad := base - r.base
		if pad+size > r.size {
			continue
		}
		// Carve [base, base+size) out of r where it sits: what is left of r is
		// the alignment padding before the block, the rest after it, both or
		// neither.
		rest := region{base: base + size, size: r.size - pad - size}
		switch {
		case pad > 0 && rest.size > 0:
			r.size = pad
			m.free = slices.Insert(m.free, i+1, rest)
		case pad > 0:
			r.size = pad
		case rest.size > 0:
			*r = rest
		default:
			m.free = slices.Delete(m.free, i, i+1)
		}
		m.carve(base, size) // one arena under the whole block, while nothing in it is live
		m.allocs[base] = size
		m.AllocBytes += size
		return base, nil
	}
	return 0, fmt.Errorf("hostmem: out of memory allocating %d bytes (align %d)", size, align)
}

// MustAlloc is Alloc that panics on failure; used by setup code where
// exhaustion is a configuration bug.
func (m *Memory) MustAlloc(size, align int64) Addr {
	a, err := m.Alloc(size, align)
	if err != nil {
		panic(err)
	}
	return a
}

// Free releases an allocation made by Alloc, coalescing it with the free
// regions it touches.
func (m *Memory) Free(addr Addr) error {
	size, ok := m.allocs[addr]
	if !ok {
		return fmt.Errorf("hostmem: free of unallocated address %#x", addr)
	}
	delete(m.allocs, addr)
	m.AllocBytes -= size
	// The list is sorted and no two regions touch, so the freed block can
	// only merge with the region before its slot, the one after it, or both.
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].base > addr })
	prev := i > 0 && m.free[i-1].base+m.free[i-1].size == addr
	next := i < len(m.free) && addr+size == m.free[i].base
	switch {
	case prev && next:
		m.free[i-1].size += size + m.free[i].size
		m.free = slices.Delete(m.free, i, i+1)
	case prev:
		m.free[i-1].size += size
	case next:
		m.free[i] = region{base: addr, size: size + m.free[i].size}
	default:
		m.free = slices.Insert(m.free, i, region{base: addr, size: size})
	}
	return nil
}

// FreeBytes reports the total free bytes (for allocator tests and the
// pruning ablation).
func (m *Memory) FreeBytes() int64 {
	var n int64
	for _, r := range m.free {
		n += r.size
	}
	return n
}

// LiveAllocs reports the number of live allocations.
func (m *Memory) LiveAllocs() int { return len(m.allocs) }
