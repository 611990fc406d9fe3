package guest

import (
	"encoding/binary"
	"fmt"

	"nesc/internal/hostmem"
	"nesc/internal/sim"
	"nesc/internal/virtio"
)

// VirtioTransport is the hypervisor-provided notification channel of a
// virtio device: Kick traps into the host (a vmexit) and wakes the backend.
type VirtioTransport interface {
	Kick(p *sim.Proc)
}

// VirtioDriver is the guest virtio-blk driver (paper Fig. 1b). Requests are
// published on a split virtqueue in guest memory; the host backend consumes
// them, performs the I/O against the backing file or device, and injects a
// completion interrupt.
type VirtioDriver struct {
	eng       *sim.Engine
	mem       *hostmem.Memory
	vq        *virtio.Virtqueue
	transport VirtioTransport
	bs        int
	cap       int64

	// Per-request header/status slots, one per potential chain.
	hdrBase hostmem.Addr
	slots   *sim.Semaphore
	freeIdx []int
	waiters map[uint16]*vioWaiter

	// SubmitTime is the driver CPU cost per request.
	SubmitTime sim.Time
	// Kicks counts guest->host notifications (each one a vmexit).
	Kicks int64
}

type vioWaiter struct {
	sig     *sim.Signal
	slotIdx int
}

const vioSlotBytes = virtio.BlkHeaderBytes + 1 // header + status byte

// virtioMaxBlocksPerReq is the largest single request (128 KB for virtio-blk
// with default seg limits).
const virtioMaxBlocksPerReq = 128

// VirtioDriverConfig configures driver construction.
type VirtioDriverConfig struct {
	Mem       *hostmem.Memory
	Transport VirtioTransport
	// QueueBase is the guest-RAM address of the virtqueue
	// (virtio.RingBytes(QueueSize) bytes).
	QueueBase hostmem.Addr
	QueueSize int
	// CapacityBlocks is the virtual disk size the device config space
	// advertises.
	CapacityBlocks int64
	BlockSize      int
	SubmitTime     sim.Time
}

// NewVirtioDriver builds the guest half of a virtio-blk device.
func NewVirtioDriver(eng *sim.Engine, cfg VirtioDriverConfig) (*VirtioDriver, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1024
	}
	d := &VirtioDriver{
		eng:        eng,
		mem:        cfg.Mem,
		vq:         virtio.New(cfg.Mem, cfg.QueueBase, cfg.QueueSize),
		transport:  cfg.Transport,
		bs:         cfg.BlockSize,
		cap:        cfg.CapacityBlocks,
		waiters:    make(map[uint16]*vioWaiter),
		SubmitTime: cfg.SubmitTime,
	}
	// Each in-flight request needs 3 descriptors (header, data, status).
	inflight := cfg.QueueSize / 3
	if inflight < 1 {
		inflight = 1
	}
	d.slots = sim.NewSemaphore(eng, inflight)
	var err error
	d.hdrBase, err = cfg.Mem.Alloc(int64(inflight)*vioSlotBytes, 16)
	if err != nil {
		return nil, err
	}
	for i := 0; i < inflight; i++ {
		d.freeIdx = append(d.freeIdx, i)
	}
	return d, nil
}

// Virtqueue exposes the shared ring to the host backend.
func (d *VirtioDriver) Virtqueue() *virtio.Virtqueue { return d.vq }

// BlockSize implements BlockDriver.
func (d *VirtioDriver) BlockSize() int { return d.bs }

// CapacityBlocks implements BlockDriver.
func (d *VirtioDriver) CapacityBlocks() int64 { return d.cap }

// MaxBlocksPerReq implements BlockDriver.
func (d *VirtioDriver) MaxBlocksPerReq() int { return virtioMaxBlocksPerReq }

// Submit implements BlockDriver.
func (d *VirtioDriver) Submit(p *sim.Proc, write bool, lba int64, buf Buffer) error {
	if len(buf.Data)%d.bs != 0 {
		return fmt.Errorf("virtio driver: unaligned buffer of %d bytes", len(buf.Data))
	}
	d.slots.Acquire(p)
	slotIdx := d.freeIdx[len(d.freeIdx)-1]
	d.freeIdx = d.freeIdx[:len(d.freeIdx)-1]
	hdrAddr := d.hdrBase + int64(slotIdx)*vioSlotBytes
	statusAddr := hdrAddr + virtio.BlkHeaderBytes

	p.Sleep(d.SubmitTime)
	var hdr [virtio.BlkHeaderBytes]byte
	typ := uint32(virtio.BlkTRead)
	if write {
		typ = virtio.BlkTWrite
	}
	binary.BigEndian.PutUint32(hdr[0:], typ)
	sector := uint64(lba) * uint64(d.bs/virtio.SectorSize)
	binary.BigEndian.PutUint64(hdr[8:], sector)
	if err := d.mem.Write(hdrAddr, hdr[:]); err != nil {
		d.release(slotIdx)
		return err
	}
	chain := []virtio.DescBuf{
		{Addr: hdrAddr, Len: virtio.BlkHeaderBytes},
		{Addr: buf.Addr, Len: uint32(len(buf.Data)), DeviceWrite: !write},
		{Addr: statusAddr, Len: 1, DeviceWrite: true},
	}
	head, ok, err := d.vq.AddChain(chain)
	if err != nil {
		d.release(slotIdx)
		return err
	}
	if !ok {
		d.release(slotIdx)
		return fmt.Errorf("virtio driver: ring full despite slot accounting")
	}
	w := &vioWaiter{sig: sim.NewSignal(d.eng), slotIdx: slotIdx}
	d.waiters[head] = w
	d.Kicks++
	d.transport.Kick(p)
	w.sig.Await(p)

	statusB := make([]byte, 1)
	if err := d.mem.Read(statusAddr, statusB); err != nil {
		return err
	}
	d.release(slotIdx)
	if statusB[0] != virtio.BlkStatusOK {
		return fmt.Errorf("virtio driver: device status %d", statusB[0])
	}
	return nil
}

func (d *VirtioDriver) release(slotIdx int) {
	d.freeIdx = append(d.freeIdx, slotIdx)
	d.slots.Release()
}

// OnInterrupt drains the used ring, waking submitters. Runs in engine
// (injected-interrupt) context.
func (d *VirtioDriver) OnInterrupt() {
	for {
		head, ok, err := d.vq.PopUsed()
		if err != nil || !ok {
			return
		}
		if w, ok := d.waiters[head]; ok {
			delete(d.waiters, head)
			w.sig.Fire()
		}
	}
}
