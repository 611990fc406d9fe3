package fabric

import (
	"errors"
	"fmt"

	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Background resilver: drains the dirty logs of rebuilding replicas, and of
// suspect ones that missed a write, by copying
// each dirty region from a clean peer, paced at one region per
// ResilverInterval so rebuild traffic rides under foreground tenants like
// the device's scavenger-priority scrub does. The copy is convergent, not
// locked: the region's dirty bit is cleared before the copy, and a
// foreground write racing the in-flight copy re-marks it (submitWrite), so
// the next pass re-copies — acknowledged writes are never lost to a stale
// resilver copy — and until the copy lands no read is served from the region
// on the target (serves).

// kickResilver starts the resilver process if it is not already running.
func (c *Client) kickResilver() {
	if c.resilverRunning {
		return
	}
	c.resilverRunning = true
	c.Eng.Go("fabric-resilver", c.resilverLoop)
}

func (c *Client) resilverLoop(p *sim.Proc) {
	defer func() { c.resilverRunning = false }()
	for {
		p.Sleep(c.Cfg.ResilverInterval)
		target := c.nextRebuildTarget()
		if target == nil {
			return
		}
		reg := target.dirty.Next(0)
		if reg < 0 {
			// Dirty log drained: redundancy restored.
			target.state = Healthy
			c.ResilverRestores++
			continue
		}
		if !c.copyRegion(p, target, reg) {
			// Nothing to copy from until a leg comes back or the source is
			// repaired: a revive, a recovery or the target's next write
			// starts the loop again, rather than it polling for ever.
			return
		}
	}
}

// nextRebuildTarget picks the leg the next pass copies to: a rebuilding one,
// or a suspect one with a dirty log. A suspect leg still takes writes, so only
// the resilver brings back what it missed; its health stays the state
// machine's, moved by the copies' outcomes like any other I/O's.
func (c *Client) nextRebuildTarget() *Replica {
	for _, r := range c.reps {
		if r.state == Rebuilding || r.state == Suspect && r.dirty.DirtyRegions() != 0 {
			return r
		}
	}
	return nil
}

// copyRegion copies one dirty region from a clean peer onto target. It
// reports false when nothing can be copied until a leg changes: no peer
// serves the region, or the peer's copy fails its integrity check — a data
// problem that, as on the read path, is not charged to the leg's health.
func (c *Client) copyRegion(p *sim.Proc, target *Replica, reg int) bool {
	lba, count := target.dirty.RegionSpan(reg)
	src := c.cleanSource(target, lba, count)
	if src == nil {
		return false
	}
	target.dirty.Clear(reg)
	c.busyTarget, c.busyLBA, c.busyCount = target, lba, count
	defer func() { c.busyTarget, c.busyLBA, c.busyCount = nil, 0, 0 }()
	// Chunk the copy at the mirror's request-size limit: the VF drivers do
	// not split oversized requests themselves (the guest block layer
	// normally does), and a trampoline-mode driver's bounce slots only hold
	// MaxBlocksPerReq blocks.
	chunk := uint64(c.MaxBlocksPerReq())
	whole := guest.AllocBuffer(c.Mem, int64(min(chunk, count))*int64(c.BlockSize()))
	defer whole.Free(c.Mem)
	for off := uint64(0); off < count; off += chunk {
		n := min(chunk, count-off)
		buf := guest.Buffer{Addr: whole.Addr, Data: whole.Data[:int(n)*c.BlockSize()]}
		if err := src.Drv.Submit(p, false, int64(lba+off), buf); err != nil {
			target.dirty.Mark(lba, count)
			if errors.Is(err, ring.ErrIntegrity) {
				return false
			}
			c.reportFailure(p, src)
			return true
		}
		if err := target.Drv.Submit(p, true, int64(lba+off), buf); err != nil {
			target.dirty.Mark(lba, count)
			c.reportFailure(p, target)
			return true
		}
	}
	c.reportSuccess(target)
	c.ResilverRegions++
	c.ResilverBlocks += int64(count)
	return true
}

// cleanSource picks a replica whose copy of [lba, lba+count) is current.
func (c *Client) cleanSource(target *Replica, lba, count uint64) *Replica {
	var best *Replica
	for _, r := range c.reps {
		// A rebuilding leg is a source wherever it serves reads.
		if r == target || !c.serves(r, lba, count) {
			continue
		}
		if best == nil || r.ewmaRead < best.ewmaRead {
			best = r
		}
	}
	return best
}

// Pause blocks new submissions and waits until every in-flight request has
// drained — the stop-and-copy window of a live migration. Balanced by
// Resume.
func (c *Client) Pause(p *sim.Proc) {
	c.paused = true
	c.resumed = sim.NewSignal(c.Eng)
	for c.inflight > 0 {
		c.drained = sim.NewSignal(c.Eng)
		c.drained.Await(p)
	}
	c.drained = nil
}

// Resume reopens the gate and wakes every submitter parked by Pause.
func (c *Client) Resume() {
	c.paused = false
	if c.resumed != nil {
		c.resumed.Fire()
	}
}

// TrackDirty arms write tracking for a migration's iterative copy passes
// and returns the log; every acknowledged write from now on marks it.
func (c *Client) TrackDirty(regionBlocks uint64) *DirtyLog {
	c.migDirty = NewDirtyLog(uint64(c.CapacityBlocks()), regionBlocks)
	return c.migDirty
}

// StopTracking disarms migration write tracking.
func (c *Client) StopTracking() { c.migDirty = nil }

// Retarget atomically repoints replica slot i at a new device and driver —
// the final switch-over of a live migration, called inside the Pause
// window so no request is in flight across the swap.
func (c *Client) Retarget(i int, dev int, drv guest.BlockDriver) error {
	if i < 0 || i >= len(c.reps) {
		return fmt.Errorf("fabric: no replica slot %d", i)
	}
	if drv.BlockSize() != c.BlockSize() || drv.CapacityBlocks() != c.CapacityBlocks() {
		return fmt.Errorf("fabric: retarget geometry mismatch")
	}
	r := c.reps[i]
	r.Dev = dev
	r.Drv = drv
	r.state = Healthy
	r.consecFail, r.consecOK = 0, 0
	r.ewmaRead = 0
	r.dirty = NewDirtyLog(uint64(c.CapacityBlocks()), c.Cfg.RegionBlocks)
	return nil
}

// ReplicaStatus is one leg's externally visible health.
type ReplicaStatus struct {
	Dev          int
	State        string
	DirtyRegions int
	ConsecFails  int
	EWMARead     sim.Time
	Quarantined  bool
}

// Status snapshots every leg (degraded-mode reporting).
func (c *Client) Status() []ReplicaStatus {
	out := make([]ReplicaStatus, len(c.reps))
	for i, r := range c.reps {
		out[i] = ReplicaStatus{
			Dev:          r.Dev,
			State:        r.state.String(),
			DirtyRegions: r.dirty.DirtyRegions(),
			ConsecFails:  r.consecFail,
			EWMARead:     sim.Time(r.ewmaRead),
			Quarantined:  r.quarantined,
		}
	}
	return out
}
