package guest

import (
	"fmt"

	"nesc/internal/hostmem"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// NescDriver is the guest block driver for a directly assigned NeSC virtual
// function (the paper's VF guest driver, "a simple block device driver",
// §VI). The VF's register page is mapped straight into the guest, so
// submissions are plain MMIO writes with no hypervisor involvement.
//
// On the paper's prototype platform the emulated VFs are invisible to the
// IOMMU, so the hypervisor pre-allocates trampoline buffers and the guest
// copies data through them around each DMA; with a real SR-IOV device the
// driver DMAs guest buffers directly. Both modes are supported.
type NescDriver struct {
	mq  *MultiQueue
	mem *hostmem.Memory
	bs  int
	cap int64

	// Trampoline mode: a pool of bounce slots so concurrent scatter-gather
	// chunks don't serialize on one buffer.
	useTrampoline bool
	trampoSlots   []Buffer
	trampoSem     *sim.Semaphore
	memcpyBW      float64

	// TrampolineCopies counts bounce copies (prototype-overhead ablation).
	TrampolineCopies int64
}

// nescMaxBlocksPerReq is the driver's scatter-gather chunk size (4 KB in the
// paper: "Large requests are broken down by the driver").
const nescMaxBlocksPerReq = 4

// NescDriverConfig configures driver construction.
type NescDriverConfig struct {
	Fab     *pcie.Fabric
	Mem     *hostmem.Memory
	PageBus int64 // bus address of the VF's register page
	// Ring is the settings value of the driver's ring client; the hypervisor
	// tells the guest how many queues its VF exposes.
	Ring RingConfig
	// UseTrampoline selects the prototype's bounce-buffer mode.
	UseTrampoline bool
	// MemcpyBandwidth prices trampoline copies.
	MemcpyBandwidth float64
	// BlockSize is the device block size.
	BlockSize int
}

// NewNescDriver programs the VF rings and reads the device geometry.
func NewNescDriver(p *sim.Proc, eng *sim.Engine, cfg NescDriverConfig) (*NescDriver, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1024
	}
	mq, err := NewMultiQueue(p, eng, cfg.Mem, cfg.Fab, cfg.PageBus, cfg.Ring)
	if err != nil {
		return nil, err
	}
	size, err := mq.DeviceSize(p)
	if err != nil {
		return nil, err
	}
	d := &NescDriver{
		mq:            mq,
		mem:           cfg.Mem,
		bs:            cfg.BlockSize,
		cap:           int64(size),
		useTrampoline: cfg.UseTrampoline,
		memcpyBW:      cfg.MemcpyBandwidth,
	}
	if d.useTrampoline {
		const slots = 32
		n := int64(nescMaxBlocksPerReq * cfg.BlockSize)
		for i := 0; i < slots; i++ {
			d.trampoSlots = append(d.trampoSlots, AllocBuffer(cfg.Mem, n))
		}
		d.trampoSem = sim.NewSemaphore(eng, slots)
	}
	return d, nil
}

// QueuePair exposes queue 0's ring client (single-queue compatibility
// accessor; use MQ for the full set).
func (d *NescDriver) QueuePair() *QueuePair { return d.mq.Queue(0) }

// MQ exposes the multi-queue mux (for interrupt routing and IOMMU grants).
func (d *NescDriver) MQ() *MultiQueue { return d.mq }

// BlockSize implements BlockDriver.
func (d *NescDriver) BlockSize() int { return d.bs }

// CapacityBlocks implements BlockDriver.
func (d *NescDriver) CapacityBlocks() int64 { return d.cap }

// MaxBlocksPerReq implements BlockDriver.
func (d *NescDriver) MaxBlocksPerReq() int { return nescMaxBlocksPerReq }

// Submit implements BlockDriver.
func (d *NescDriver) Submit(p *sim.Proc, write bool, lba int64, buf Buffer) error {
	if len(buf.Data)%d.bs != 0 {
		return fmt.Errorf("nesc driver: unaligned buffer of %d bytes", len(buf.Data))
	}
	count := uint32(len(buf.Data) / d.bs)
	op := uint32(ring.OpRead)
	if write {
		op = ring.OpWrite
	}
	if !d.useTrampoline {
		st, err := d.mq.Submit(p, op, uint64(lba), count, buf.Addr)
		if err != nil {
			return err
		}
		return ring.StatusError(st)
	}
	// Trampoline mode: copy through a bounce slot around the DMA (paper
	// §VI: "VMs have to copy data to/from the trampoline buffers
	// before/after initiating a DMA operation"). A request larger than a
	// bounce slot cannot be serviced — callers must split at
	// MaxBlocksPerReq like the guest block layer does.
	if int(count) > nescMaxBlocksPerReq {
		return fmt.Errorf("nesc driver: %d-block request exceeds %d-block trampoline slot", count, nescMaxBlocksPerReq)
	}
	d.trampoSem.Acquire(p)
	slot := d.trampoSlots[len(d.trampoSlots)-1]
	d.trampoSlots = d.trampoSlots[:len(d.trampoSlots)-1]
	defer func() {
		d.trampoSlots = append(d.trampoSlots, slot)
		d.trampoSem.Release()
	}()
	if write {
		copy(slot.Data, buf.Data)
		d.TrampolineCopies++
		p.Sleep(sim.BytesTime(int64(len(buf.Data)), d.memcpyBW))
	}
	st, err := d.mq.Submit(p, op, uint64(lba), count, slot.Addr)
	if err != nil {
		return err
	}
	if err := ring.StatusError(st); err != nil {
		return err
	}
	if !write {
		copy(buf.Data, slot.Data[:len(buf.Data)])
		d.TrampolineCopies++
		p.Sleep(sim.BytesTime(int64(len(buf.Data)), d.memcpyBW))
	}
	return nil
}
