package hypervisor

import (
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Background scrubbing (data-integrity tentpole): the hypervisor walks every
// device of the fleet, one after the other, through its PF with OpVerify
// requests — reads that guard-check every block on the medium but move no
// data over DMA. The device
// services verify chunks only when both the out-of-band queue and every VF's
// in-band queue are empty (strict scavenger priority in dtuPick), so a scrub
// pass provably never delays foreground traffic at the DTU; the pacing
// interval below additionally bounds how much PF-ring occupancy it adds.
//
// A verify chunk that fails its guard check is repaired in place by the
// device: a recovery read fetches the true bytes behind the corruption layer
// and a bounded-retry rewrite refreshes the block, clearing any latent-error
// or latched-corruption state at the injector.

// ScrubConfig paces the background scrubber.
type ScrubConfig struct {
	// Interval is the idle gap between consecutive verify requests
	// (default 200µs). Larger = gentler.
	Interval sim.Time
	// BlocksPerReq is the span of one verify request (default 64, capped at
	// the PF's per-request block limit).
	BlocksPerReq int
}

func (c *ScrubConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = 200 * sim.Microsecond
	}
	if c.BlocksPerReq <= 0 {
		c.BlocksPerReq = 64
	}
	if c.BlocksPerReq > pfMaxBlocksPerReq {
		c.BlocksPerReq = pfMaxBlocksPerReq
	}
}

// ScrubReport summarizes one scrub pass, summed over the fleet.
type ScrubReport struct {
	Blocks   int64 // blocks verified
	Requests int64 // verify requests issued
	Errors   int64 // requests that completed with a non-OK status
	Repairs  int64 // device-side integrity repairs during the pass
}

// StartScrubber launches the paced background scrubber. It loops full-fleet
// passes until StopScrubber; each wakeup re-checks the stop flag, so the
// simulation quiesces promptly once the workload ends. Idempotent while a
// scrubber is already running.
func (h *Hypervisor) StartScrubber(cfg ScrubConfig) {
	if h.scrubOn {
		return
	}
	cfg.defaults()
	h.scrubOn = true
	h.scrubStop = false
	h.Eng.Go("nesc-scrubber", func(p *sim.Proc) {
		for !h.scrubStop {
			rep := h.scrubPass(p, cfg, true)
			h.ScrubBlocks += rep.Blocks
			h.ScrubErrors += rep.Errors
			h.ScrubRepairs += rep.Repairs
			if !h.scrubStop {
				h.ScrubPasses++
			}
		}
		h.scrubOn = false
	})
}

// StopScrubber asks the background scrubber to exit at its next wakeup.
func (h *Hypervisor) StopScrubber() { h.scrubStop = true }

// ScrubberRunning reports whether the background scrubber is active.
func (h *Hypervisor) ScrubberRunning() bool { return h.scrubOn }

// ScrubPass synchronously verifies every block of every device, repairing
// any guard failures it finds (nescctl -scrub, crash harness).
func (h *Hypervisor) ScrubPass(p *sim.Proc) ScrubReport {
	cfg := ScrubConfig{Interval: 1} // near-continuous: the caller is waiting
	cfg.defaults()
	return h.scrubPass(p, cfg, false)
}

// scrubPass walks each device's [0, NumBlocks) in BlocksPerReq strides of
// OpVerify on that device's PF queue.
func (h *Hypervisor) scrubPass(p *sim.Proc, cfg ScrubConfig, interruptible bool) ScrubReport {
	var rep ScrubReport
	for _, d := range h.devs {
		repairs0 := d.Ctl.Counters().IntegrityRepairs
		total := d.Ctl.Medium.Store().NumBlocks()
		for lba := int64(0); lba < total; lba += int64(cfg.BlocksPerReq) {
			if interruptible && h.scrubStop {
				break
			}
			p.Sleep(cfg.Interval)
			n := total - lba
			if n > int64(cfg.BlocksPerReq) {
				n = int64(cfg.BlocksPerReq)
			}
			st, err := d.pfQP.Submit(p, ring.OpVerify, uint64(lba), uint32(n), 0)
			rep.Requests++
			rep.Blocks += n
			if err != nil || ring.StatusError(st) != nil {
				rep.Errors++
			}
		}
		rep.Repairs += d.Ctl.Counters().IntegrityRepairs - repairs0
	}
	return rep
}
