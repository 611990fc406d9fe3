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
