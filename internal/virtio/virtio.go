// Package virtio implements the split-virtqueue transport and the
// virtio-blk request format — the paravirtualized storage interface the
// paper uses as its primary software baseline ("commonly referred to as
// virtio after its Linux implementation ... the most common storage
// virtualization method used in modern hypervisors", §II).
//
// The virtqueue lives in guest memory and is accessed functionally by both
// the guest driver and the host backend; CPU and trap costs are charged by
// the respective callers. The layout follows the classic split ring:
//
//	descriptor table: qsz × {addr u64, len u32, flags u16, next u16}
//	available ring:   {flags u16, idx u16, ring[qsz] u16}
//	used ring:        {flags u16, idx u16, ring[qsz] × {id u32, len u32}}
package virtio

import (
	"fmt"

	"nesc/internal/hostmem"
)

// Descriptor flags.
const (
	FlagNext  = 1 // chain continues at .next
	FlagWrite = 2 // device writes this buffer
)

// virtio-blk request types.
const (
	BlkTRead  = 0
	BlkTWrite = 1
)

// virtio-blk status byte values.
const (
	BlkStatusOK    = 0
	BlkStatusIOErr = 1
)

// BlkHeaderBytes is the size of the virtio-blk request header
// {type u32, reserved u32, sector u64}.
const BlkHeaderBytes = 16

// SectorSize is the virtio-blk addressing unit.
const SectorSize = 512

// DescBuf describes one buffer of a descriptor chain.
type DescBuf struct {
	Addr        hostmem.Addr
	Len         uint32
	DeviceWrite bool
}

const descBytes = 16

// RingBytes reports the guest memory footprint of a qsz-entry virtqueue.
func RingBytes(qsz int) int64 {
	desc := int64(qsz) * descBytes
	avail := int64(4 + 2*qsz)
	used := int64(4 + 8*qsz)
	return desc + align4(avail) + align4(used)
}

func align4(n int64) int64 { return (n + 3) &^ 3 }

// Virtqueue is one split virtqueue. The guest and the host each construct
// their own Virtqueue over the same memory; only the private cursors differ.
type Virtqueue struct {
	mem  *hostmem.Memory
	base hostmem.Addr
	qsz  int

	descOff  int64
	availOff int64
	usedOff  int64

	// Guest-private state.
	free      []uint16
	availIdx  uint16
	lastUsed  uint16
	chainTail map[uint16]int // head -> chain length, for freeing

	// Host-private state.
	lastAvail uint16
	usedIdx   uint16
}

// New maps a virtqueue over guest memory at base (RingBytes(qsz) bytes).
func New(mem *hostmem.Memory, base hostmem.Addr, qsz int) *Virtqueue {
	q := &Virtqueue{
		mem:       mem,
		base:      base,
		qsz:       qsz,
		descOff:   0,
		chainTail: make(map[uint16]int),
	}
	q.availOff = int64(qsz) * descBytes
	q.usedOff = q.availOff + align4(int64(4+2*qsz))
	for i := qsz - 1; i >= 0; i-- {
		q.free = append(q.free, uint16(i))
	}
	return q
}

func (q *Virtqueue) descAddr(i uint16) hostmem.Addr {
	return q.base + q.descOff + int64(i)*descBytes
}

func (q *Virtqueue) writeDesc(i uint16, b DescBuf, next uint16, hasNext bool) error {
	a := q.descAddr(i)
	if err := q.mem.WriteU64(a, uint64(b.Addr)); err != nil {
		return err
	}
	if err := q.mem.WriteU32(a+8, b.Len); err != nil {
		return err
	}
	var flags uint32
	if hasNext {
		flags |= FlagNext
	}
	if b.DeviceWrite {
		flags |= FlagWrite
	}
	// flags u16 | next u16 packed into one u32 for simplicity of access.
	if err := q.mem.WriteU32(a+12, flags<<16|uint32(next)); err != nil {
		return err
	}
	return nil
}

func (q *Virtqueue) readDesc(i uint16) (DescBuf, uint16, bool, error) {
	a := q.descAddr(i)
	addr, err := q.mem.ReadU64(a)
	if err != nil {
		return DescBuf{}, 0, false, err
	}
	l, err := q.mem.ReadU32(a + 8)
	if err != nil {
		return DescBuf{}, 0, false, err
	}
	fn, err := q.mem.ReadU32(a + 12)
	if err != nil {
		return DescBuf{}, 0, false, err
	}
	flags := fn >> 16
	next := uint16(fn & 0xffff)
	return DescBuf{Addr: int64(addr), Len: l, DeviceWrite: flags&FlagWrite != 0}, next, flags&FlagNext != 0, nil
}

// AddChain (guest side) allocates descriptors for bufs and publishes the
// chain on the available ring. It reports the chain head, or false when the
// ring lacks free descriptors.
func (q *Virtqueue) AddChain(bufs []DescBuf) (uint16, bool, error) {
	if len(bufs) == 0 || len(bufs) > len(q.free) {
		return 0, false, nil
	}
	idxs := make([]uint16, len(bufs))
	for i := range bufs {
		idxs[i] = q.free[len(q.free)-1-i]
	}
	q.free = q.free[:len(q.free)-len(bufs)]
	for i, b := range bufs {
		var next uint16
		hasNext := i+1 < len(bufs)
		if hasNext {
			next = idxs[i+1]
		}
		if err := q.writeDesc(idxs[i], b, next, hasNext); err != nil {
			return 0, false, err
		}
	}
	head := idxs[0]
	q.chainTail[head] = len(bufs)
	// Publish on the available ring.
	slot := q.base + q.availOff + 4 + int64(q.availIdx%uint16(q.qsz))*2
	if err := q.mem.Write(slot, []byte{byte(head >> 8), byte(head)}); err != nil {
		return 0, false, err
	}
	q.availIdx++
	if err := q.mem.Write(q.base+q.availOff+2, []byte{byte(q.availIdx >> 8), byte(q.availIdx)}); err != nil {
		return 0, false, err
	}
	return head, true, nil
}

// PopAvail (host side) consumes the next published chain head.
func (q *Virtqueue) PopAvail() (uint16, bool, error) {
	b := make([]byte, 2)
	if err := q.mem.Read(q.base+q.availOff+2, b); err != nil {
		return 0, false, err
	}
	idx := uint16(b[0])<<8 | uint16(b[1])
	if q.lastAvail == idx {
		return 0, false, nil
	}
	slot := q.base + q.availOff + 4 + int64(q.lastAvail%uint16(q.qsz))*2
	if err := q.mem.Read(slot, b); err != nil {
		return 0, false, err
	}
	q.lastAvail++
	return uint16(b[0])<<8 | uint16(b[1]), true, nil
}

// ReadChain (host side) decodes the descriptor chain starting at head.
func (q *Virtqueue) ReadChain(head uint16) ([]DescBuf, error) {
	var out []DescBuf
	i := head
	for {
		b, next, hasNext, err := q.readDesc(i)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		if !hasNext {
			return out, nil
		}
		if len(out) > q.qsz {
			return nil, fmt.Errorf("virtio: descriptor chain loop at %d", head)
		}
		i = next
	}
}

// PushUsed (host side) retires a chain on the used ring.
func (q *Virtqueue) PushUsed(head uint16, written uint32) error {
	slot := q.base + q.usedOff + 4 + int64(q.usedIdx%uint16(q.qsz))*8
	if err := q.mem.WriteU32(slot, uint32(head)); err != nil {
		return err
	}
	if err := q.mem.WriteU32(slot+4, written); err != nil {
		return err
	}
	q.usedIdx++
	return q.mem.Write(q.base+q.usedOff+2, []byte{byte(q.usedIdx >> 8), byte(q.usedIdx)})
}

// PopUsed (guest side) consumes the next retired chain, freeing its
// descriptors.
func (q *Virtqueue) PopUsed() (uint16, bool, error) {
	b := make([]byte, 2)
	if err := q.mem.Read(q.base+q.usedOff+2, b); err != nil {
		return 0, false, err
	}
	idx := uint16(b[0])<<8 | uint16(b[1])
	if q.lastUsed == idx {
		return 0, false, nil
	}
	slot := q.base + q.usedOff + 4 + int64(q.lastUsed%uint16(q.qsz))*8
	head32, err := q.mem.ReadU32(slot)
	if err != nil {
		return 0, false, err
	}
	q.lastUsed++
	head := uint16(head32)
	n := q.chainTail[head]
	delete(q.chainTail, head)
	// Return descriptors to the free list. Chain indices were taken from
	// the tail of the free list in order.
	i := head
	for k := 0; k < n; k++ {
		q.free = append(q.free, i)
		_, next, hasNext, err := q.readDesc(i)
		if err != nil {
			return 0, false, err
		}
		if !hasNext {
			break
		}
		i = next
	}
	return head, true, nil
}
