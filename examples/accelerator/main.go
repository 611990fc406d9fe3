// Accelerator: the extension sketched in paper §IV-D — "direct storage
// accesses from accelerators". A virtual function is a real PCIe endpoint,
// so a peer device (a GPU, an FPGA) can drive it directly with device-to-
// device DMA and keep the CPU entirely out of the storage path.
//
// This example dips below the public API into the internal packages, because
// it models a second PCIe device rather than a guest OS: an "accelerator"
// that owns a VF's register page, submits requests from its own on-card
// queue logic, and DMAs data without any guest kernel or hypervisor
// involvement on the data path.
package main

import (
	"bytes"
	"fmt"
	"log"

	"nesc/internal/bench"
	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

func main() {
	cfg := bench.DefaultConfig()
	pl := bench.NewPlatform(cfg)
	d := pl.Hyp.Device(0)
	err := pl.Run(func(p *sim.Proc) error {
		// The hypervisor prepares a dataset file and exports it as a VF,
		// exactly as it would for a VM.
		if err := d.MkImage(p, "/dataset.bin", 7, 16*1024, false); err != nil {
			return err
		}
		f, err := d.HostFS.Open(p, "/dataset.bin", 7, 6)
		if err != nil {
			return err
		}
		sample := bytes.Repeat([]byte("weights "), 512<<10/8)
		if _, err := f.WriteAt(p, sample, 0); err != nil {
			return err
		}
		vfIdx, err := d.CreateVF(p, "/dataset.bin", 7)
		if err != nil {
			return err
		}
		fmt.Printf("dataset exported as VF %d\n", vfIdx)

		// The accelerator: a PCIe peer with its own ring client. It programs
		// the VF's registers itself and DMAs storage blocks straight into
		// its buffer — offset 0 of the VF is offset 0 of the file.
		accelFn := pl.Fab.RegisterFunction("accelerator")
		mq, err := guest.NewMultiQueue(p, pl.Eng, pl.Mem, pl.Fab, d.VFPageBus(vfIdx),
			guest.RingConfig{Entries: 64, SubmitTime: 300 * sim.Nanosecond})
		if err != nil {
			return err
		}
		qp := mq.Queue(0)
		// Route the VF's completion interrupts to the accelerator's queue
		// logic (on real hardware the MSI would target the peer device).
		d.RouteVFInterrupts(vfIdx, mq)

		// On-card staging buffer (in host memory for this model).
		const chunk = 64 << 10
		bufAddr := pl.Mem.MustAlloc(chunk, 4096)
		start := p.Now()
		var streamed int64
		for off := int64(0); off < 512<<10; off += chunk {
			st, err := qp.Submit(p, 1 /* read */, uint64(off/1024), chunk/1024, bufAddr)
			if err != nil {
				return err
			}
			if err := ring.StatusError(st); err != nil {
				return err
			}
			streamed += chunk
		}
		elapsed := p.Now() - start
		got, err := pl.Mem.Slice(bufAddr, 8)
		if err != nil {
			return err
		}
		fmt.Printf("accelerator streamed %d KB in %v (%.0f MB/s), first bytes %q\n",
			streamed>>10, elapsed, float64(streamed)/1e6/elapsed.Seconds(), got)
		fmt.Printf("CPU involvement on the data path: none — %d accelerator-initiated DMAs, fn %d\n",
			qp.Submitted, accelFn)
		fmt.Println("isolation still holds: the accelerator can only reach the dataset's blocks")
		// Reading past the VF's device size fails in hardware.
		st, err := qp.Submit(p, 1, 1<<30, 1, bufAddr)
		if err != nil {
			return err
		}
		if ring.StatusError(st) == nil {
			return fmt.Errorf("out-of-range accelerator access succeeded")
		}
		fmt.Println("out-of-range access rejected by the device")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
