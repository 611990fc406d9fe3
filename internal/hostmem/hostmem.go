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
type Memory struct {
	data []byte
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

// New returns a memory of the given size. The first 64 bytes are reserved so
// no allocation returns address 0 (the extent-tree NULL pointer).
func New(size int64) *Memory {
	const reserve = 64
	if size <= reserve {
		panic("hostmem: memory too small")
	}
	return &Memory{
		data:   make([]byte, size),
		free:   []region{{base: reserve, size: size - reserve}},
		allocs: make(map[Addr]int64),
	}
}

// Size reports the total memory size in bytes.
func (m *Memory) Size() int64 { return int64(len(m.data)) }

// check validates an access range.
func (m *Memory) check(addr Addr, n int) error {
	if addr < 0 || n < 0 || addr > int64(len(m.data))-int64(n) { // not addr+n: a hostile addr would wrap it
		return fmt.Errorf("hostmem: access [%#x, %#x) outside memory of %d bytes", addr, addr+int64(n), len(m.data))
	}
	return nil
}

// Read copies len(p) bytes starting at addr into p.
func (m *Memory) Read(addr Addr, p []byte) error {
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	copy(p, m.data[addr:])
	return nil
}

// Write copies p into memory starting at addr.
func (m *Memory) Write(addr Addr, p []byte) error {
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	copy(m.data[addr:], p)
	return nil
}

// Zero clears n bytes starting at addr.
func (m *Memory) Zero(addr Addr, n int64) error {
	if err := m.check(addr, int(n)); err != nil {
		return err
	}
	clear(m.data[addr : addr+n])
	return nil
}

// Slice returns the live backing bytes for [addr, addr+n). Mutating the
// returned slice mutates memory; it models zero-copy device access and must
// not be retained across allocator calls.
func (m *Memory) Slice(addr Addr, n int64) ([]byte, error) {
	if err := m.check(addr, int(n)); err != nil {
		return nil, err
	}
	return m.data[addr : addr+n], nil
}

// Typed big-endian accessors. The NeSC wire format is big-endian so
// serialized structures are unambiguous in hex dumps.

// ReadU64 reads a big-endian uint64 at addr.
func (m *Memory) ReadU64(addr Addr) (uint64, error) {
	if err := m.check(addr, 8); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(m.data[addr:]), nil
}

// WriteU64 writes a big-endian uint64 at addr.
func (m *Memory) WriteU64(addr Addr, v uint64) error {
	if err := m.check(addr, 8); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(m.data[addr:], v)
	return nil
}

// ReadU32 reads a big-endian uint32 at addr.
func (m *Memory) ReadU32(addr Addr) (uint32, error) {
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(m.data[addr:]), nil
}

// WriteU32 writes a big-endian uint32 at addr.
func (m *Memory) WriteU32(addr Addr, v uint32) error {
	if err := m.check(addr, 4); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(m.data[addr:], v)
	return nil
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
