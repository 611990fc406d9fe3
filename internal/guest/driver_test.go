package guest

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nesc/internal/hostmem"
	"nesc/internal/sim"
	"nesc/internal/virtio"
)

// loopbackTransport is a minimal in-test virtio backend: on every kick it
// synchronously serves the queue against an in-memory disk.
type loopbackTransport struct {
	eng   *sim.Engine
	mem   *hostmem.Memory
	vq    *virtio.Virtqueue
	drv   *VirtioDriver
	disk  []byte
	bs    int
	kicks int
	// failNext forces an error status on the next request.
	failNext bool
}

func (tr *loopbackTransport) Kick(p *sim.Proc) {
	tr.kicks++
	p.Sleep(2 * sim.Microsecond) // trap cost stand-in
	for {
		head, ok, err := tr.vq.PopAvail()
		if err != nil || !ok {
			break
		}
		chain, err := tr.vq.ReadChain(head)
		if err != nil || len(chain) != 3 {
			panic("bad chain in loopback")
		}
		hdr := make([]byte, virtio.BlkHeaderBytes)
		if err := tr.mem.Read(chain[0].Addr, hdr); err != nil {
			panic(err)
		}
		typ := binary.BigEndian.Uint32(hdr[0:])
		sector := binary.BigEndian.Uint64(hdr[8:])
		off := int64(sector) * virtio.SectorSize
		data, err := tr.mem.Slice(chain[1].Addr, int64(chain[1].Len))
		if err != nil {
			panic(err)
		}
		status := byte(virtio.BlkStatusOK)
		switch {
		case tr.failNext:
			tr.failNext = false
			status = virtio.BlkStatusIOErr
		case typ == virtio.BlkTRead:
			copy(data, tr.disk[off:])
		case typ == virtio.BlkTWrite:
			copy(tr.disk[off:], data)
		default:
			status = virtio.BlkStatusIOErr
		}
		if err := tr.mem.Write(chain[2].Addr, []byte{status}); err != nil {
			panic(err)
		}
		if err := tr.vq.PushUsed(head, chain[1].Len); err != nil {
			panic(err)
		}
		// Completion "interrupt" after a short delay.
		tr.eng.After(sim.Microsecond, tr.drv.OnInterrupt)
	}
}

func newVirtioLoopback(t *testing.T) (*VirtioDriver, *loopbackTransport, *Kernel, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	mem := hostmem.New(16 << 20)
	tr := &loopbackTransport{eng: eng, mem: mem, disk: make([]byte, 1<<20), bs: 1024}
	drv, err := NewVirtioDriver(eng, VirtioDriverConfig{
		Mem: mem, Transport: tr, QueueSize: 16,
		CapacityBlocks: 1024, BlockSize: 1024, SubmitTime: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.drv = drv
	tr.vq = drv.Virtqueue()
	k := NewKernel(eng, mem, DefaultParams(), drv)
	return drv, tr, k, eng
}

func TestVirtioDriverRoundTrip(t *testing.T) {
	drv, tr, k, eng := newVirtioLoopback(t)
	run(t, eng, func(p *sim.Proc) {
		buf := k.AllocBuffer(8192)
		for i := range buf.Data {
			buf.Data[i] = byte(i * 7)
		}
		want := append([]byte(nil), buf.Data...)
		if err := drv.Submit(p, true, 16, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tr.disk[16*1024:16*1024+8192], want) {
			t.Fatal("write did not reach the loopback disk")
		}
		clear(buf.Data)
		if err := drv.Submit(p, false, 16, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, want) {
			t.Fatal("read mismatch")
		}
		if tr.kicks != 2 || drv.Kicks != 2 {
			t.Fatalf("kicks = %d/%d", tr.kicks, drv.Kicks)
		}
	})
}

func TestVirtioDriverErrorStatus(t *testing.T) {
	drv, tr, k, eng := newVirtioLoopback(t)
	run(t, eng, func(p *sim.Proc) {
		buf := k.AllocBuffer(1024)
		tr.failNext = true
		if err := drv.Submit(p, true, 0, buf); err == nil {
			t.Fatal("device error status not surfaced")
		}
		// Driver recovers: the descriptor slot was recycled.
		if err := drv.Submit(p, true, 0, buf); err != nil {
			t.Fatalf("driver wedged after error: %v", err)
		}
	})
}

func TestVirtioDriverRejectsUnaligned(t *testing.T) {
	drv, _, k, eng := newVirtioLoopback(t)
	run(t, eng, func(p *sim.Proc) {
		buf := k.AllocBuffer(1500)
		if err := drv.Submit(p, true, 0, buf); err == nil {
			t.Fatal("unaligned virtio submit accepted")
		}
	})
}

func TestVirtioDriverConcurrentSubmitters(t *testing.T) {
	drv, _, k, eng := newVirtioLoopback(t)
	done := 0
	for i := 0; i < 8; i++ {
		eng.Go("submitter", func(p *sim.Proc) {
			buf := k.AllocBuffer(2048)
			for r := 0; r < 5; r++ {
				if err := drv.Submit(p, true, int64(i*64+r*2), buf); err != nil {
					t.Errorf("submitter %d: %v", i, err)
					return
				}
			}
			done++
		})
	}
	eng.Run()
	eng.Shutdown()
	if done != 8 {
		t.Fatalf("only %d submitters finished", done)
	}
}

// fakePort emulates the trapped register interface of the emulated disk.
type fakePort struct {
	regs   map[int]uint64
	disk   []byte
	mem    *hostmem.Memory
	status uint64
	traps  int
}

func (f *fakePort) WriteReg(p *sim.Proc, reg int, val uint64) {
	f.traps++
	p.Sleep(3 * sim.Microsecond)
	f.regs[reg] = val
	if reg == EmulRegCmd {
		lba := f.regs[EmulRegLBA]
		count := f.regs[EmulRegCount]
		buf := f.regs[EmulRegBuf]
		data, err := f.mem.Slice(int64(buf), int64(count)*EmulSector)
		if err != nil {
			f.status = EmulStatusErr
			return
		}
		off := int64(lba) * EmulSector
		if off+int64(len(data)) > int64(len(f.disk)) {
			f.status = EmulStatusErr
			return
		}
		switch val {
		case EmulCmdRead:
			copy(data, f.disk[off:])
		case EmulCmdWrite:
			copy(f.disk[off:], data)
		default:
			f.status = EmulStatusErr
			return
		}
		f.status = EmulStatusOK
	}
}

func (f *fakePort) ReadReg(p *sim.Proc, reg int) uint64 {
	f.traps++
	p.Sleep(3 * sim.Microsecond)
	if reg == EmulRegStatus {
		return f.status
	}
	return 0
}

func TestEmulDriverRoundTripAndTrapCount(t *testing.T) {
	eng := sim.NewEngine()
	mem := hostmem.New(8 << 20)
	port := &fakePort{regs: map[int]uint64{}, disk: make([]byte, 1<<20), mem: mem}
	drv := NewEmulDriver(EmulDriverConfig{Port: port, CapacityBlocks: 1024, BlockSize: 1024, SubmitTime: sim.Microsecond})
	k := NewKernel(eng, mem, DefaultParams(), drv)
	run(t, eng, func(p *sim.Proc) {
		buf := k.AllocBuffer(4096)
		for i := range buf.Data {
			buf.Data[i] = byte(i)
		}
		want := append([]byte(nil), buf.Data...)
		if err := drv.Submit(p, true, 8, buf); err != nil {
			t.Fatal(err)
		}
		clear(buf.Data)
		if err := drv.Submit(p, false, 8, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, want) {
			t.Fatal("emul round trip mismatch")
		}
		// Fixed trap count per request: 6 writes + 1 status read.
		if port.traps != 14 || drv.Traps != 14 {
			t.Fatalf("traps = %d/%d, want 14", port.traps, drv.Traps)
		}
	})
}

func TestEmulDriverBadCommandStatus(t *testing.T) {
	eng := sim.NewEngine()
	mem := hostmem.New(4 << 20)
	port := &fakePort{regs: map[int]uint64{}, disk: make([]byte, 1<<20), mem: mem}
	drv := NewEmulDriver(EmulDriverConfig{Port: port, CapacityBlocks: 8192, BlockSize: 1024})
	k := NewKernel(eng, mem, DefaultParams(), drv)
	run(t, eng, func(p *sim.Proc) {
		buf := k.AllocBuffer(1024)
		// Past the fake disk (1MB) but within claimed capacity: the device
		// reports an error status the driver must surface.
		if err := drv.Submit(p, true, 4096, buf); err == nil {
			t.Fatal("emul error status not surfaced")
		}
	})
}
