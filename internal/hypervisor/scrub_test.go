package hypervisor

import (
	"testing"

	"nesc/internal/fault"
	"nesc/internal/sim"
)

// TestScrubPassRepairsLatchedCorruption seeds silently corrupted sectors in
// a region no workload touches and proves one synchronous scrub pass finds
// and heals them: the latent-sector blind spot closed. In a fleet the latches
// sit on the last device's medium only, so the pass must walk every device.
func TestScrubPassRepairsLatchedCorruption(t *testing.T) {
	for _, devices := range []int{1, 2} {
		w := newWorld(t, 4096, nil)
		last := w.d
		for len(w.h.Devices()) < devices {
			last = w.addDevice(t, w.ctl.P, 4096)
		}
		inj := fault.NewInjector(fault.Plan{Seed: 5, CorruptSectors: []int64{2000, 3000}})
		last.Ctl.Medium.SetInjector(inj)
		w.run(t, func(p *sim.Proc) {
			w.boot(t, p)
			rep := w.h.ScrubPass(p)
			if want := int64(devices) * 4096; rep.Blocks != want {
				t.Errorf("%d devices: scrub covered %d blocks, want every device whole (%d)", devices, rep.Blocks, want)
			}
			if rep.Errors != 0 {
				t.Errorf("%d verify requests failed outright (repair ladder exhausted)", rep.Errors)
			}
			if rep.Repairs == 0 {
				t.Error("scrub repaired nothing despite latched corruption")
			}
			if n := inj.CorruptCount(); n != 0 {
				t.Errorf("%d devices: %d corrupt latches survived the scrub", devices, n)
			}
			// A second pass over the healed fleet is clean and repairs nothing.
			rep2 := w.h.ScrubPass(p)
			if rep2.Errors != 0 || rep2.Repairs != 0 {
				t.Errorf("second pass: errors=%d repairs=%d, want 0/0", rep2.Errors, rep2.Repairs)
			}
		})
		if last.Ctl.Medium.RecoveryReads == 0 {
			t.Error("repairs happened without heroic recovery reads")
		}
	}
}

// TestBackgroundScrubberLifecycle exercises start/stop: the paced proc makes
// progress while running, a second start is a no-op, and stop lets the
// engine drain to quiescence.
func TestBackgroundScrubberLifecycle(t *testing.T) {
	w := newWorld(t, 4096, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.h.StartScrubber(ScrubConfig{Interval: 10 * sim.Microsecond})
		w.h.StartScrubber(ScrubConfig{}) // idempotent: must not spawn a twin
		if !w.h.ScrubberRunning() {
			t.Error("scrubber not running after start")
		}
		p.Sleep(2 * sim.Millisecond)
		w.h.StopScrubber()
	})
	if w.h.ScrubberRunning() {
		t.Error("scrubber still running after stop + drain")
	}
	if w.h.ScrubBlocks == 0 {
		t.Error("background scrubber verified no blocks while running")
	}
}
