// Package hostmem models host physical memory (DRAM) as seen by the NeSC
// device over PCIe: a flat byte-addressable space with a simple region
// allocator, backed in fixed 1 MB blocks at their first write. Extent trees,
// DMA ring buffers, trampoline buffers, and guest RAM windows all live here,
// so the device-side extent walker reads exactly the bytes the hypervisor
// serialized — the same contract the hardware DMA walk has.
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
// Only the backing is lazy: the space is cut into grain-aligned blocks, and a
// block is backed at its first write; until then it reads as zero. An
// allocation of at most a grain lies inside one block; a larger one starts on
// a block boundary, holds its blocks whole, and they share one arena. A
// block's arena is replaced only while nothing live lies in it, so a Slice of
// a live allocation is memory until the allocation is freed.
type Memory struct {
	size int64
	// blocks[i] backs the block at i<<grainShift: it holds its arena's bytes
	// from the block's first byte to the arena's end, so the blocks after it
	// in the same arena are suffixes of it. nil is unbacked.
	blocks [][]byte
	// free regions, sorted by base and fully coalesced (no two touch). Alloc
	// and Free edit the list in place. Placement is first-fit by ascending
	// base and part of the simulation's determinism contract: allocation
	// addresses end up in device registers and DMA descriptors.
	free []region
	// allocs maps base -> requested length for Free validation.
	allocs map[Addr]int64

	// AllocBytes tracks live allocated bytes, as requested (for pruning
	// experiments).
	AllocBytes int64
}

type region struct {
	base Addr
	size int64
}

// grain is the size of a block: the unit of backing, and the boundary an
// allocation of at most a grain never straddles.
const (
	grainShift = 20
	grain      = 1 << grainShift
)

// New returns a memory of the given size. The first 64 bytes are reserved so
// no allocation returns address 0 (the extent-tree NULL pointer).
func New(size int64) *Memory {
	const reserve = 64
	if size <= reserve {
		panic("hostmem: memory too small")
	}
	return &Memory{
		size:   size,
		blocks: make([][]byte, (size-1)>>grainShift+1),
		free:   []region{{base: reserve, size: size - reserve}},
		allocs: make(map[Addr]int64),
	}
}

// Size reports the total memory size in bytes.
func (m *Memory) Size() int64 { return m.size }

// view returns the front of [addr, addr+n): the longest prefix that lies
// inside one arena (its live bytes) or inside one unbacked block (nil), and
// that prefix's length.
func (m *Memory) view(addr Addr, n int64) ([]byte, int64, error) {
	if addr < 0 || n < 0 || addr > m.size-n { // not addr+n: a hostile addr would wrap it
		return nil, 0, fmt.Errorf("hostmem: access [%#x, %#x) outside memory of %d bytes", addr, addr+n, m.size)
	}
	if n == 0 {
		return nil, 0, nil
	}
	b, off := m.blocks[addr>>grainShift], addr&(grain-1)
	if b == nil {
		return nil, min(n, grain-off), nil
	}
	n = min(n, int64(len(b))-off)
	return b[off : off+n], n, nil
}

// arena gives blocks [i, j) one arena and returns its bytes from block i on.
// Blocks one arena already holds stay where they are. Otherwise the caller
// vouches that nothing live lies in a backed one of them: a fresh arena takes
// them over, with what they held copied in so they read as they did, and an
// arena that reached into them from an earlier block now ends where they
// begin.
func (m *Memory) arena(i, j int) []byte {
	start, end := int64(i)<<grainShift, min(int64(j)<<grainShift, m.size)
	if b := m.blocks[i]; int64(len(b)) >= end-start {
		return b
	}
	fresh := make([]byte, end-start)
	for k := i; k < j; k++ {
		at := int64(k-i) << grainShift
		if old := m.blocks[k]; old != nil {
			copy(fresh[at:], old[:min(len(old), grain)])
		}
		m.blocks[k] = fresh[at:]
	}
	for k := i - 1; k >= 0 && int64(len(m.blocks[k])) > int64(i-k)<<grainShift; k-- {
		m.blocks[k] = m.blocks[k][:int64(i-k)<<grainShift]
	}
	return fresh
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
			i := int(addr >> grainShift)
			b = m.arena(i, i+1)[addr&(grain-1):][:n]
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
// must lie inside one arena, as every allocation does, or in blocks that are
// all unbacked (they are backed then, by one arena). A slice of an allocation
// is dead once the allocation is freed: the block may get another arena.
func (m *Memory) Slice(addr Addr, n int64) ([]byte, error) {
	b, k, err := m.view(addr, n)
	if err != nil || n == 0 || b != nil && k == n {
		return b, err
	}
	i, j := int(addr>>grainShift), int((addr+n-1)>>grainShift)+1
	if b != nil || slices.ContainsFunc(m.blocks[i:j], func(b []byte) bool { return b != nil }) {
		return nil, fmt.Errorf("hostmem: slice [%#x, %#x) is not inside one allocation", addr, addr+n)
	}
	return m.arena(i, j)[addr&(grain-1):][:n], nil
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
// and returns the base address. First-fit over the free list, where an
// allocation of at most a grain that would straddle a block boundary starts
// on the boundary instead, and a larger one starts on a boundary and reserves
// its blocks whole.
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
		base := alignUp(r.base, align)
		if size > grain || base>>grainShift != (base+size-1)>>grainShift {
			base = alignUp(base, grain)
		}
		pad, end := base-r.base, m.reach(base, size)
		if end > r.base+r.size {
			continue
		}
		// Carve [base, end) out of r where it sits: what is left of r is the
		// padding before the block, the rest after it, both or neither.
		rest := region{base: end, size: r.base + r.size - end}
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
		if size > grain {
			m.arena(int(base>>grainShift), int((end-1)>>grainShift)+1) // while nothing in its blocks is live
		}
		m.allocs[base] = size
		m.AllocBytes += size
		return base, nil
	}
	return 0, fmt.Errorf("hostmem: out of memory allocating %d bytes (align %d)", size, align)
}

// reach returns where the range an allocation of size bytes at base reserves
// ends: at its last byte, or for one larger than a grain at the end of its
// last block.
func (m *Memory) reach(base Addr, size int64) Addr {
	end := base + size
	if size > grain && end <= m.size {
		end = min(alignUp(end, grain), m.size)
	}
	return end
}

func alignUp(a Addr, align int64) Addr { return (a + align - 1) &^ (align - 1) }

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
	size = m.reach(addr, size) - addr
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
