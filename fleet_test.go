package nesc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Fleet control-plane tests: a host-side operation reaches the device that
// hosts the VM it is called on, fleet-wide operations reach every device, and
// a device index outside the fleet is an error.

// Two tenants hold the same VF index on different devices. Everything done
// to B (reset, snapshot) must land on device 1 and leave A, on device 0,
// alone.
func TestVMOperationsStayOnTheVMsDevice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Devices = 2
	cfg.MediumMB = 16
	s := New(cfg)
	err := s.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/a.img", 7, 1<<20, false); err != nil {
			return err
		}
		if err := ctx.CreateImageOn(1, "/b.img", 7, 1<<20, false); err != nil {
			return err
		}
		a, err := ctx.StartVM("a", BackendNeSC, "/a.img", 7)
		if err != nil {
			return err
		}
		b, err := ctx.StartVMOn(1, "b", BackendNeSC, "/b.img", 7)
		if err != nil {
			return err
		}
		if a.VFIndex() != 0 || b.VFIndex() != 0 {
			return fmt.Errorf("VF indices a=%d b=%d, want both 0", a.VFIndex(), b.VFIndex())
		}
		want := make([]byte, 4096)
		fillPattern(want, 9)
		if err := b.WriteAt(ctx, want, 0); err != nil {
			return err
		}

		// A has a long write in flight while B is reset. No driver timeout is
		// configured, so a reset of A's function would surface as ErrReset.
		big := make([]byte, 256<<10)
		fillPattern(big, 3)
		task := ctx.Go("a-writer", func(c *Ctx) error { return a.WriteAt(c, big, 0) })
		ctx.Sleep(100 * time.Microsecond) // past the bounce copy: the write is at the device
		if err := b.Reset(ctx); err != nil {
			return fmt.Errorf("B.Reset: %w", err)
		}
		if err := task.Wait(ctx); err != nil {
			return fmt.Errorf("A's in-flight write was disturbed by B.Reset: %w", err)
		}
		d0, d1 := s.pl.Hyp.Device(0), s.pl.Hyp.Device(1)
		if d0.Ctl.Counters().Resets != 0 || d1.Ctl.Counters().Resets != 1 {
			return fmt.Errorf("FLRs dev0=%d dev1=%d, want 0/1", d0.Ctl.Counters().Resets, d1.Ctl.Counters().Resets)
		}

		if err := b.Snapshot(ctx, "/b.snap", 7); err != nil {
			return fmt.Errorf("B.Snapshot: %w", err)
		}
		if _, err := d0.HostFS.Stat(ctx.proc, "/b.snap", 0); err == nil {
			return fmt.Errorf("B's snapshot landed on device 0")
		}
		f, err := d1.HostFS.Open(ctx.proc, "/b.snap", 7, 4 /* read */)
		if err != nil {
			return fmt.Errorf("B's snapshot is not on device 1: %w", err)
		}
		got := make([]byte, len(want))
		if _, err := f.ReadAt(ctx.proc, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("snapshot does not hold B's data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeviceIndexOutsideTheFleetIsAnError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Devices = 2
	cfg.MediumMB = 16
	cfg.CAS = true
	s := New(cfg)
	err := s.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/g.img", 7, 64<<10, false); err != nil {
			return err
		}
		if _, err := ctx.SealImage("/g.img", "golden", 7); err != nil {
			return err
		}
		for _, dev := range []int{-1, cfg.Devices} {
			if err := ctx.CreateImageOn(dev, "/x.img", 7, 64<<10, false); err == nil {
				return fmt.Errorf("CreateImageOn(%d) succeeded", dev)
			}
			if err := ctx.ForkImageOn(dev, "golden", "/f.img", 7); err == nil {
				return fmt.Errorf("ForkImageOn(%d) succeeded", dev)
			}
			if _, err := ctx.StartVMOn(dev, "x", BackendNeSC, "/g.img", 7); err == nil {
				return fmt.Errorf("StartVMOn(%d) succeeded", dev)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Fleet-wide means every device: silent rot on device 1's medium is caught
// by device 1's guards unless DisableGuards turned them off there too, its
// terminal error shows up in the flight dump, and a scrub walks device 1 as
// well as device 0 and repairs the block.
func TestFleetWideOperationsCoverEveryDevice(t *testing.T) {
	const mediumMB = 16
	run := func(guardsOff bool, body func(ctx *Ctx, s *Simulation, vm *VM, want []byte) error) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Devices = 2
		cfg.MediumMB = mediumMB
		cfg.DisableGuards = guardsOff
		s := New(cfg)
		err := s.Run(func(ctx *Ctx) error {
			if err := ctx.CreateImageOn(1, "/b.img", 7, 64<<10, false); err != nil {
				return err
			}
			vm, err := ctx.StartVMOn(1, "b", BackendNeSC, "/b.img", 7)
			if err != nil {
				return err
			}
			want := make([]byte, 4096)
			fillPattern(want, 4)
			if err := vm.WriteAt(ctx, want, 0); err != nil {
				return err
			}
			// Flip one bit of the image's first block on device 1's medium,
			// behind the guard tags' back.
			d1 := s.pl.Hyp.Device(1)
			runs, _, err := d1.HostFS.Runs(ctx.proc, "/b.img")
			if err != nil {
				return err
			}
			d1.Ctl.Medium.Store().Block(int64(runs[0].Physical))[0] ^= 0x40
			return body(ctx, s, vm, want)
		})
		if err != nil {
			t.Fatalf("guardsOff=%v: %v", guardsOff, err)
		}
	}

	run(false, func(ctx *Ctx, s *Simulation, vm *VM, want []byte) error {
		got := make([]byte, len(want))
		if err := vm.ReadAt(ctx, got, 0); !errors.Is(err, ErrIntegrity) {
			return fmt.Errorf("read of the rotted block: %v, want ErrIntegrity", err)
		}
		if n := s.FlightRecords(); n == 0 {
			return fmt.Errorf("FlightRecords = 0 after a terminal error on device 1")
		}
		if dump := s.FlightDump(); !strings.Contains(dump, "--- device 1 ---") || !strings.Contains(dump, "dev=1 fn=1") {
			return fmt.Errorf("device 1's terminal error is missing from the flight dump:\n%s", dump)
		}
		rep := ctx.Scrub()
		if want := int64(2 * mediumMB << 10); rep.Blocks != want {
			return fmt.Errorf("scrub covered %d blocks, want both devices (%d)", rep.Blocks, want)
		}
		if rep.Repairs == 0 {
			return fmt.Errorf("scrub repaired nothing on device 1")
		}
		if err := vm.ReadAt(ctx, got, 0); err != nil {
			return fmt.Errorf("read after the scrub repaired the block: %w", err)
		}
		return nil
	})

	run(true, func(ctx *Ctx, s *Simulation, vm *VM, want []byte) error {
		got := make([]byte, len(want))
		if err := vm.ReadAt(ctx, got, 0); err != nil {
			return fmt.Errorf("DisableGuards left device 1's guard check on: %w", err)
		}
		if bytes.Equal(got, want) {
			return fmt.Errorf("the rot did not reach the guest with guards off")
		}
		return nil
	})
}
