package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// TestReadLegFailureAccounting drives the mirror's read-failure handling on
// both read paths — the plain loop and the hedge workers account a leg's
// answer through the same accountReadLeg. A transport error retries on a peer
// and advances the failed leg's health state machine; an integrity error
// falls back to a peer without touching it; when every leg fails the caller
// gets the first error; with no eligible leg it gets ErrNoReplicas.
func TestReadLegFailureAccounting(t *testing.T) {
	errWire := errors.New("transport down")
	errWire2 := errors.New("transport down too")
	const lat = 10 * sim.Microsecond
	paths := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"hedged", Config{HedgePercentile: 95, HedgeMinDelay: 20 * sim.Microsecond}},
	}
	for _, pc := range paths {
		path, cfg := pc.name, pc.cfg
		t.Run(path+"/transport error retries on the peer", func(t *testing.T) {
			rig := newMirrorRig(t, cfg, lat, lat)
			rig.legs[0].readErr = errWire
			rig.run(t, func(p *sim.Proc) error {
				if err := rig.read(p, 3, 512); err != nil {
					return fmt.Errorf("read with one good leg: %w", err)
				}
				c, bad := rig.c, rig.c.reps[0]
				if rig.legs[1].reads != 1 || c.ReadRetries != 1 || c.ReadFallbacks != 0 {
					return fmt.Errorf("peer reads %d, retries %d, fallbacks %d; want 1, 1, 0", rig.legs[1].reads, c.ReadRetries, c.ReadFallbacks)
				}
				if bad.consecFail != 1 || c.reps[1].consecFail != 0 {
					return fmt.Errorf("consecutive failures %d/%d, want 1/0", bad.consecFail, c.reps[1].consecFail)
				}
				// Keep failing: the health state machine walks the leg to
				// Suspect and then fences it.
				for i := 0; bad.state != Failed; i++ {
					if i > 2*c.Cfg.FailThreshold {
						return fmt.Errorf("leg still %v after %d failed reads", bad.state, i)
					}
					bad.ewmaRead, c.reps[1].ewmaRead = 0, 1 // keep steering to the bad leg
					if err := rig.read(p, 3, 512); err != nil {
						return err
					}
				}
				if c.Suspects != 1 || c.Failovers != 1 {
					return fmt.Errorf("suspects %d, failovers %d; want 1 and 1", c.Suspects, c.Failovers)
				}
				return nil
			})
		})
		t.Run(path+"/integrity error falls back without a health charge", func(t *testing.T) {
			rig := newMirrorRig(t, cfg, lat, lat)
			rig.legs[0].readErr = fmt.Errorf("leg0: %w", ring.ErrIntegrity)
			rig.run(t, func(p *sim.Proc) error {
				got := make([]byte, 512)
				if err := rig.c.Submit(p, false, 3, guest.Buffer{Data: got}); err != nil {
					return fmt.Errorf("read with one good leg: %w", err)
				}
				if !bytes.Equal(got, rig.legs[1].store[3*512:4*512]) {
					return errors.New("fallback read did not deliver the peer's bytes")
				}
				c, bad := rig.c, rig.c.reps[0]
				if c.ReadFallbacks != 1 || c.ReadRetries != 0 {
					return fmt.Errorf("fallbacks %d, retries %d; want 1, 0", c.ReadFallbacks, c.ReadRetries)
				}
				if bad.consecFail != 0 || bad.state != Healthy {
					return fmt.Errorf("integrity error charged the health FSM: %d consecutive failures, state %v", bad.consecFail, bad.state)
				}
				return nil
			})
		})
		t.Run(path+"/all legs failing returns the first error", func(t *testing.T) {
			rig := newMirrorRig(t, cfg, lat, lat)
			rig.legs[0].readErr, rig.legs[1].readErr = errWire, errWire2
			rig.run(t, func(p *sim.Proc) error {
				if err := rig.read(p, 3, 512); !errors.Is(err, errWire) {
					return fmt.Errorf("read error %v, want the first leg's", err)
				}
				if rig.c.ReadRetries != 2 || rig.legs[0].reads != 1 || rig.legs[1].reads != 1 {
					return fmt.Errorf("retries %d over %d+%d leg reads; want 2 over 1+1", rig.c.ReadRetries, rig.legs[0].reads, rig.legs[1].reads)
				}
				return nil
			})
		})
		t.Run(path+"/no eligible leg", func(t *testing.T) {
			rig := newMirrorRig(t, cfg, lat, lat)
			rig.run(t, func(p *sim.Proc) error {
				rig.c.reps[0].state = Failed
				rig.c.reps[1].dirty.Mark(3, 1) // stale for the range
				if err := rig.read(p, 3, 512); !errors.Is(err, ErrNoReplicas) {
					return fmt.Errorf("read error %v, want ErrNoReplicas", err)
				}
				if rig.legs[0].reads+rig.legs[1].reads != 0 {
					return errors.New("an ineligible leg was read")
				}
				return nil
			})
		})
	}
}

// TestForegroundWriteRacingResilverCopyWins: the resilver clears a region's
// dirty bit before copying it, so a foreground write that lands on the
// rebuilding leg while the copy is in flight would be overwritten by the
// copy's stale bytes. The write must re-mark the region so the next pass
// copies it again, and the leg must end up holding the foreground write.
func TestForegroundWriteRacingResilverCopyWins(t *testing.T) {
	const lat = 10 * sim.Microsecond
	rig := newMirrorRig(t, Config{RegionBlocks: 8, ResilverInterval: 100 * sim.Microsecond}, lat, lat)
	rig.run(t, func(p *sim.Proc) error {
		c, target := rig.c, rig.c.reps[1]
		old, fresh := bytes.Repeat([]byte{0x01}, 512), bytes.Repeat([]byte{0x02}, 512)
		// Leg 1 misses a write while fenced, then comes back.
		target.state = Failed
		if err := c.Submit(p, true, 3, guest.Buffer{Data: old}); err != nil {
			return err
		}
		c.Revive(1)
		// The first resilver pass starts one interval from now: it reads the
		// region from leg 0 for one leg latency, then writes it to leg 1 for
		// another. A foreground write issued halfway through the read lands
		// on both legs after the resilver has sampled the old bytes and
		// before its copy lands on leg 1.
		p.Sleep(c.Cfg.ResilverInterval + lat/2)
		if c.busyTarget != target {
			return errors.New("the resilver copy is not in flight; nothing is being raced")
		}
		if err := c.Submit(p, true, 3, guest.Buffer{Data: fresh}); err != nil {
			return err
		}
		if c.busyTarget != target {
			return errors.New("the resilver copy finished before the foreground write; nothing was raced")
		}
		if target.dirty.DirtyRegions() == 0 {
			return errors.New("a write racing the in-flight copy did not re-mark the region")
		}
		for i := 0; target.state != Healthy; i++ {
			if i > 100 {
				return fmt.Errorf("leg 1 still %v with %d dirty regions", target.state, target.dirty.DirtyRegions())
			}
			p.Sleep(c.Cfg.ResilverInterval)
		}
		if c.ResilverRegions != 2 {
			return fmt.Errorf("%d regions copied, want the raced one twice", c.ResilverRegions)
		}
		for i, leg := range rig.legs {
			if !bytes.Equal(leg.store[3*512:4*512], fresh) {
				return fmt.Errorf("leg %d lost the foreground write to the resilver's stale copy", i)
			}
		}
		return nil
	})
}

// TestResilverCopyFailureRemarksTheRegion fails one resilver copy on either
// side — the clean source's read, then the rebuilding target's write. The
// region goes back into the target's dirty log, the leg that failed is charged
// through reportFailure, and once the fault clears the next pass converges
// with the write the mirror acknowledged while the target was fenced.
func TestResilverCopyFailureRemarksTheRegion(t *testing.T) {
	const lat = 10 * sim.Microsecond
	errWire := errors.New("transport down")
	for _, tc := range []struct {
		name string
		leg  int // the leg whose side of the copy fails
		err  func(leg *fakeLeg) *error
	}{
		{"source read", 0, func(leg *fakeLeg) *error { return &leg.readErr }},
		{"target write", 1, func(leg *fakeLeg) *error { return &leg.writeErr }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newMirrorRig(t, Config{RegionBlocks: 8, ResilverInterval: 100 * sim.Microsecond}, lat, lat)
			rig.run(t, func(p *sim.Proc) error {
				c, target := rig.c, rig.c.reps[1]
				acked := bytes.Repeat([]byte{0xA5}, 512)
				target.state = Failed
				if err := c.Submit(p, true, 3, guest.Buffer{Data: acked}); err != nil {
					return err
				}
				fault := tc.err(rig.legs[tc.leg])
				*fault = errWire
				c.Revive(1)
				// The first pass starts one interval from now and fails within
				// two leg latencies; the second starts an interval after it.
				p.Sleep(c.Cfg.ResilverInterval + 3*lat)
				if target.dirty.DirtyRegions() != 1 || c.ResilverRegions != 0 {
					return fmt.Errorf("after the failed copy: %d dirty regions, %d copied; want 1, 0", target.dirty.DirtyRegions(), c.ResilverRegions)
				}
				if got := c.reps[tc.leg].consecFail; got != 1 {
					return fmt.Errorf("leg %d has %d consecutive failures, want 1: the failed copy was not charged to it", tc.leg, got)
				}
				*fault = nil
				for i := 0; target.state != Healthy; i++ {
					if i > 10 {
						return fmt.Errorf("leg 1 still %v with %d dirty regions after the fault cleared", target.state, target.dirty.DirtyRegions())
					}
					p.Sleep(c.Cfg.ResilverInterval)
				}
				if c.ResilverRegions != 1 {
					return fmt.Errorf("%d regions copied, want 1", c.ResilverRegions)
				}
				for i, leg := range rig.legs {
					if !bytes.Equal(leg.store[3*512:4*512], acked) {
						return fmt.Errorf("leg %d lost the acknowledged write", i)
					}
				}
				return nil
			})
		})
	}
}

// TestMirrorConverges holds the mirror to two promises under transient
// faults: a region some leg holds current stays readable, and every leg that
// answers gets back in sync without foreground traffic to drive it. Each case
// is a way a leg used to end stale, unreadable or fenced for good.
func TestMirrorConverges(t *testing.T) {
	const lat = 10 * sim.Microsecond
	errWire := errors.New("transport down")
	fresh := bytes.Repeat([]byte{0x5A}, 512)
	write := func(p *sim.Proc, c *Client, lba int64) error {
		return c.Submit(p, true, lba, guest.Buffer{Data: fresh})
	}
	// synced waits up to n resilver intervals for every leg to be healthy
	// with nothing dirty and to hold fresh at lba.
	synced := func(p *sim.Proc, rig *mirrorRig, n int, lba int64) error {
		c := rig.c
		for i := 0; ; i++ {
			done := true
			for _, r := range c.reps {
				done = done && r.state == Healthy && r.dirty.DirtyRegions() == 0
			}
			if done {
				break
			}
			if i == n {
				return fmt.Errorf("legs never back in sync: %+v", c.Status())
			}
			p.Sleep(c.Cfg.ResilverInterval)
		}
		for i, leg := range rig.legs {
			if !bytes.Equal(leg.store[lba*512:(lba+1)*512], fresh) {
				return fmt.Errorf("leg %d does not hold the acknowledged write", i)
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		body func(p *sim.Proc, rig *mirrorRig) error
	}{
		{"a write no current leg took marks nothing", func(p *sim.Proc, rig *mirrorRig) error {
			c := rig.c
			c.reps[1].state = Failed
			rig.legs[0].writeErr = errWire
			if err := write(p, c, 3); err == nil {
				return errors.New("a write no leg took was acknowledged")
			}
			rig.legs[0].writeErr = nil
			if err := rig.read(p, 3, 512); err != nil {
				return fmt.Errorf("the last live leg no longer serves the range: %w", err)
			}
			// Only a leg already stale around the range takes the next one.
			c.reps[0].state = Rebuilding
			c.reps[0].dirty.Mark(0, 1)
			if err := write(p, c, 3); !errors.Is(err, ErrNoReplicas) {
				return fmt.Errorf("a write only a stale leg took: %v, want ErrNoReplicas", err)
			}
			return nil
		}},
		{"a healthy leg that misses a write is resilvered", func(p *sim.Proc, rig *mirrorRig) error {
			rig.legs[1].writeErr = errWire
			if err := write(p, rig.c, 3); err != nil {
				return err
			}
			rig.legs[1].writeErr = nil
			if err := write(p, rig.c, 40); err != nil {
				return err
			}
			return synced(p, rig, 10, 3)
		}},
		{"a suspect leg that misses a write is resilvered", func(p *sim.Proc, rig *mirrorRig) error {
			c, leg := rig.c, rig.c.reps[1]
			rig.legs[1].writeErr = errWire
			for lba := int64(3); leg.state != Suspect; lba += 40 {
				if lba > 3+40*int64(c.Cfg.SuspectThreshold) {
					return fmt.Errorf("leg 1 still %v after %d failed writes", leg.state, c.Cfg.SuspectThreshold)
				}
				if err := write(p, c, lba); err != nil {
					return err
				}
			}
			rig.legs[1].writeErr = nil
			// No more foreground traffic: the resilver alone must drain the
			// log. The leg stays suspect until enough I/O succeeds.
			for i := 0; leg.dirty.DirtyRegions() != 0; i++ {
				if i == 10 {
					return fmt.Errorf("suspect leg 1 still stale with no traffic: %+v", c.Status())
				}
				p.Sleep(c.Cfg.ResilverInterval)
			}
			if leg.state == Failed {
				return errors.New("the resilver fenced a leg whose copies succeed")
			}
			for lba := int64(3); lba < 3+40*int64(c.Cfg.SuspectThreshold); lba += 40 {
				if !bytes.Equal(rig.legs[1].store[lba*512:(lba+1)*512], fresh) {
					return fmt.Errorf("leg 1 does not hold the acknowledged write at %d", lba)
				}
			}
			return nil
		}},
		{"a rebuilding leg that errs keeps its resilver", func(p *sim.Proc, rig *mirrorRig) error {
			c := rig.c
			c.reps[1].state = Failed
			if err := write(p, c, 3); err != nil {
				return err
			}
			rig.legs[1].writeErr = errWire
			c.Revive(1)
			p.Sleep(2*c.Cfg.ResilverInterval + 5*lat) // two copies fail
			rig.legs[1].writeErr = nil
			return synced(p, rig, 10, 3)
		}},
		{"a read never comes from the region in copy", func(p *sim.Proc, rig *mirrorRig) error {
			c := rig.c
			c.reps[1].state = Failed
			if err := write(p, c, 3); err != nil {
				return err
			}
			c.Revive(1)
			p.Sleep(c.Cfg.ResilverInterval + lat/2) // the copy has cleared the region's bit
			c.reps[0].ewmaRead, c.reps[1].ewmaRead = 1, 0
			got := make([]byte, 512)
			if err := c.Submit(p, false, 3, guest.Buffer{Data: got}); err != nil {
				return err
			}
			if !bytes.Equal(got, fresh) {
				return errors.New("a read was served from the leg the resilver is still copying to")
			}
			return nil
		}},
		{"two rebuilding legs copy from each other", func(p *sim.Proc, rig *mirrorRig) error {
			c := rig.c
			copy(rig.legs[1].store[3*512:], fresh)
			copy(rig.legs[0].store[11*512:], fresh)
			c.reps[0].dirty.Mark(3, 1)
			c.reps[1].dirty.Mark(11, 1)
			c.reps[0].state, c.reps[1].state = Rebuilding, Rebuilding
			c.kickResilver()
			if err := synced(p, rig, 10, 3); err != nil {
				return err
			}
			return synced(p, rig, 0, 11)
		}},
		{"a corrupt source is not charged for the copy", func(p *sim.Proc, rig *mirrorRig) error {
			c := rig.c
			c.reps[1].state = Failed
			if err := write(p, c, 3); err != nil {
				return err
			}
			rig.legs[0].readErr = fmt.Errorf("leg0: %w", ring.ErrIntegrity)
			c.Revive(1)
			p.Sleep(6 * c.Cfg.ResilverInterval)
			if r := c.reps[0]; r.state != Healthy || r.consecFail != 0 {
				return fmt.Errorf("the source is %v with %d failures: its corruption was charged to its health", r.state, r.consecFail)
			}
			return nil
		}},
		{"the resilver stops with nothing to copy from", func(p *sim.Proc, rig *mirrorRig) error {
			c := rig.c
			c.reps[0].state, c.reps[1].state = Failed, Rebuilding
			c.reps[1].dirty.Mark(3, 1)
			c.kickResilver()
			p.Sleep(3 * c.Cfg.ResilverInterval)
			if c.resilverRunning {
				return errors.New("the resilver polls with no leg to copy from")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newMirrorRig(t, Config{RegionBlocks: 8, ResilverInterval: 100 * sim.Microsecond}, lat, lat)
			rig.run(t, func(p *sim.Proc) error { return tc.body(p, rig) })
		})
	}
}
