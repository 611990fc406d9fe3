package hypervisor

import (
	"encoding/binary"
	"io"

	"nesc/internal/extfs"
	"nesc/internal/guest"
	"nesc/internal/hostmem"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/virtio"
)

// HostTarget is what a software storage backend (virtio or emulation)
// ultimately reads and writes: either the raw physical function or an image
// file on the host filesystem. Addresses are host-memory addresses of the
// data (guest buffers or backend bounce buffers).
type HostTarget interface {
	SizeBlocks() int64
	BlockSize() int
	Read(p *sim.Proc, lba int64, addr hostmem.Addr, nBlocks int) error
	Write(p *sim.Proc, lba int64, addr hostmem.Addr, nBlocks int) error
}

// rawPFTarget backs a virtual disk with the physical function itself —
// "mapping the PF to the guest VM using either virtio [or] device
// emulation" (paper §VII-A).
type rawPFTarget struct {
	d *Device
}

func (t *rawPFTarget) SizeBlocks() int64 { return t.d.Ctl.Medium.Store().NumBlocks() }
func (t *rawPFTarget) BlockSize() int    { return t.d.Ctl.P.BlockSize }

func (t *rawPFTarget) Read(p *sim.Proc, lba int64, addr hostmem.Addr, nBlocks int) error {
	return t.d.pfSubmit(p, ring.OpRead, lba, addr, nBlocks, 1)
}

func (t *rawPFTarget) Write(p *sim.Proc, lba int64, addr hostmem.Addr, nBlocks int) error {
	return t.d.pfSubmit(p, ring.OpWrite, lba, addr, nBlocks, 1)
}

// fileTarget backs a virtual disk with an image file on the host filesystem
// — the nested-filesystem configuration whose overheads the paper measures.
type fileTarget struct {
	d    *Device
	file *extfs.File
	size int64 // virtual disk size in blocks
}

func (t *fileTarget) SizeBlocks() int64 { return t.size }
func (t *fileTarget) BlockSize() int    { return t.d.Ctl.P.BlockSize }

func (t *fileTarget) Read(p *sim.Proc, lba int64, addr hostmem.Addr, nBlocks int) error {
	bs := t.BlockSize()
	buf, err := t.d.h.Mem.Slice(addr, int64(nBlocks*bs))
	if err != nil {
		return err
	}
	n, err := t.file.ReadAt(p, buf, lba*int64(bs))
	if err == io.EOF {
		// The image may be shorter than the virtual disk (sparse tail):
		// unbacked bytes read as zeros.
		clear(buf[n:])
		err = nil
	}
	return err
}

func (t *fileTarget) Write(p *sim.Proc, lba int64, addr hostmem.Addr, nBlocks int) error {
	bs := t.BlockSize()
	buf, err := t.d.h.Mem.Slice(addr, int64(nBlocks*bs))
	if err != nil {
		return err
	}
	_, err = t.file.WriteAt(p, buf, lba*int64(bs))
	return err
}

// VioBackend is the host half of a virtio-blk device (the QEMU iothread):
// it drains the virtqueue on kicks, performs the I/O against the target, and
// injects completion interrupts.
type VioBackend struct {
	h       *Hypervisor
	target  HostTarget
	vq      *virtio.Virtqueue
	drv     *guest.VirtioDriver
	kicks   *sim.Semaphore
	aio     *sim.Semaphore // outstanding asynchronous target I/Os
	stopped bool

	// Requests counts processed virtio requests.
	Requests int64
}

// Kick implements guest.VirtioTransport: the guest's notification traps out
// (vmexit), signals the backend thread, and resumes the guest.
func (b *VioBackend) Kick(p *sim.Proc) {
	p.Sleep(b.h.P.VMExitTime)
	b.kicks.Release()
	p.Sleep(b.h.P.VMEnterTime)
}

func (b *VioBackend) loop(p *sim.Proc) {
	for {
		b.kicks.Acquire(p)
		p.Sleep(b.h.P.BackendWakeTime)
		for !b.stopped {
			head, ok, err := b.vq.PopAvail()
			if err != nil {
				panic(err)
			}
			if !ok {
				break
			}
			b.process(p, head)
		}
		if b.stopped {
			return
		}
	}
}

// stop ends the backend with its VM: the guest driver closes once the backend
// has completed every request it holds, and the backend thread exits without
// touching the virtqueue again.
func (b *VioBackend) stop(p *sim.Proc) {
	b.drv.Close(p)
	b.stopped = true
	b.kicks.Release()
}

// process handles one request: the iothread's CPU work is serialized in the
// backend loop; the target I/O and completion run asynchronously (QEMU
// submits aio and moves on), so back-to-back large requests overlap on the
// device — which is why virtio converges with NeSC at multi-MB blocks
// (paper §VII-A).
func (b *VioBackend) process(p *sim.Proc, head uint16) {
	h := b.h
	b.Requests++
	p.Sleep(h.P.BackendProcessTime)
	b.aio.Acquire(p)
	h.Eng.Go("virtio-aio", func(q *sim.Proc) {
		defer b.aio.Release()
		chain, err := b.vq.ReadChain(head)
		status := byte(virtio.BlkStatusOK)
		var written uint32
		if err != nil || len(chain) < 3 {
			status = virtio.BlkStatusIOErr
		} else {
			hdr := make([]byte, virtio.BlkHeaderBytes)
			if err := h.Mem.Read(chain[0].Addr, hdr); err != nil {
				status = virtio.BlkStatusIOErr
			} else {
				typ := binary.BigEndian.Uint32(hdr[0:])
				sector := binary.BigEndian.Uint64(hdr[8:])
				bs := b.target.BlockSize()
				lba := int64(sector / uint64(bs/virtio.SectorSize))
				data := chain[1]
				nBlocks := int(data.Len) / bs
				switch {
				case int(data.Len)%bs != 0 || lba+int64(nBlocks) > b.target.SizeBlocks():
					status = virtio.BlkStatusIOErr
				case typ == virtio.BlkTRead:
					if err := b.target.Read(q, lba, data.Addr, nBlocks); err != nil {
						status = virtio.BlkStatusIOErr
					} else {
						written = data.Len
					}
				case typ == virtio.BlkTWrite:
					if err := b.target.Write(q, lba, data.Addr, nBlocks); err != nil {
						status = virtio.BlkStatusIOErr
					}
				default:
					status = virtio.BlkStatusIOErr
				}
			}
		}
		statusDesc := chain[len(chain)-1]
		if err := h.Mem.Write(statusDesc.Addr, []byte{status}); err != nil {
			panic(err)
		}
		if err := b.vq.PushUsed(head, written); err != nil {
			panic(err)
		}
		q.Sleep(h.P.InjectTime)
		h.Injections++
		b.drv.OnInterrupt()
	})
}

// EmulBackend is the host half of the fully emulated disk (paper Fig. 1a):
// every register access is a trap serviced here, and the command register
// executes the whole DMA transfer against the backing target.
type EmulBackend struct {
	h      *Hypervisor
	target HostTarget

	lbaSectors uint64
	count      uint64
	bufAddr    uint64
	status     uint64

	// Commands counts executed disk commands.
	Commands int64
}

// WriteReg implements guest.EmulPort.
func (b *EmulBackend) WriteReg(p *sim.Proc, reg int, val uint64) {
	b.h.trap(p, b.h.P.EmulTrapTime)
	switch reg {
	case guest.EmulRegLBA:
		b.lbaSectors = val
	case guest.EmulRegCount:
		b.count = val
	case guest.EmulRegBuf:
		b.bufAddr = val
	case guest.EmulRegCmd:
		b.exec(p, val)
	}
}

// ReadReg implements guest.EmulPort.
func (b *EmulBackend) ReadReg(p *sim.Proc, reg int) uint64 {
	b.h.trap(p, b.h.P.EmulTrapTime)
	if reg == guest.EmulRegStatus {
		return b.status
	}
	return 0
}

// exec emulates one disk command: QEMU-side request processing, the
// guest-memory copy the device model performs, and the backing-store I/O.
func (b *EmulBackend) exec(p *sim.Proc, cmd uint64) {
	b.Commands++
	p.Sleep(b.h.P.EmulCmdProcessTime)
	bs := b.target.BlockSize()
	secPerBlk := uint64(bs / guest.EmulSector)
	if b.lbaSectors%secPerBlk != 0 || b.count%secPerBlk != 0 || b.count == 0 {
		b.status = guest.EmulStatusErr
		return
	}
	lba := int64(b.lbaSectors / secPerBlk)
	nBlocks := int(b.count / secPerBlk)
	if lba+int64(nBlocks) > b.target.SizeBlocks() {
		b.status = guest.EmulStatusErr
		return
	}
	bytes := int64(b.count) * guest.EmulSector
	// The device model copies between guest memory and its own buffers.
	p.Sleep(sim.BytesTime(bytes, b.h.P.MemcpyBandwidth))
	var err error
	switch cmd {
	case guest.EmulCmdRead:
		err = b.target.Read(p, lba, int64(b.bufAddr), nBlocks)
	case guest.EmulCmdWrite:
		err = b.target.Write(p, lba, int64(b.bufAddr), nBlocks)
	default:
		b.status = guest.EmulStatusErr
		return
	}
	if err != nil {
		b.status = guest.EmulStatusErr
		return
	}
	b.status = guest.EmulStatusOK
}
