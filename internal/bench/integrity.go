package bench

import (
	"fmt"

	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// integrityOps is the request count for the random-I/O phases. Sized so the
// latency samplers see a meaningful tail while the 2x2 sweep stays fast.
const integrityOps = 512

// integrityMix advances a splitmix64 state for the random-offset streams.
func integrityMix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randIO issues ops random aligned single-block requests against t:
// workload.DD's measured loop over a random offset sequence, kept here
// because only this ablation needs a pure random read or write phase.
func randIO(p *sim.Proc, t workload.ByteTarget, blockBytes, ops int, write bool, seed uint64) (workload.Result, error) {
	var res workload.Result
	slots := t.Size() / int64(blockBytes)
	if slots <= 0 {
		return res, fmt.Errorf("bench: target smaller than one block")
	}
	state := seed
	err := workload.Timed(p, &res, int64(ops), int64(blockBytes), func(int64) error {
		state = integrityMix(state)
		off := int64(state%uint64(slots)) * int64(blockBytes)
		if write {
			return t.WriteAt(p, off, blockBytes)
		}
		return t.ReadAt(p, off, blockBytes)
	})
	return res, err
}

// AblationIntegrity measures what end-to-end data integrity costs: per-block
// guard tags (CRC-32C at the medium plus wire-level protection information)
// and the background scrubber, each toggled independently — the 2x2 the
// integrity work promises to keep cheap. Guard math is modeled as pipelined
// into the data movement (it adds no virtual time), so the guard columns
// quantify "free by construction"; the scrub columns expose whatever
// contention the scavenger-priority scrubber leaks into the foreground.
//
// Each cell runs four raw phases (seq write/read, rand write/read, 4 KB
// requests on a direct NeSC VF) on its own platform. Guards covers both the
// medium's read-side guard verification and the wire-level protection
// information; scrub runs the paced background scrubber for the whole
// measurement window.
//
// A second table isolates the tail: foreground random-read latency with and
// without the scrubber sweeping underneath, mean/p50/p99.
func AblationIntegrity(cfg Config) ([]*stats.Table, error) {
	type cell struct {
		col           string
		guards, scrub bool
		tailCol       string // its column of the tail table, if it has one
	}
	cells := []cell{
		{"no-integrity", false, false, ""},
		{"guards", true, false, "scrub off"},
		{"scrub-only", false, true, ""},
		{"guards+scrub", true, true, "scrub on"},
	}
	thr := stats.NewTable("Integrity ablation: guard tags x scrubber (4KB raw, direct VF)",
		"workload", "MB/s", cells[0].col, cells[1].col, cells[2].col, cells[3].col)
	tail := stats.NewTable("Scrubber foreground impact (rand 4KB reads, guards on)",
		"latency", "us", cells[1].tailCol, cells[3].tailCol)
	for _, c := range cells {
		qcfg := cfg
		if !c.guards {
			qcfg.Hyp.Ring.PIBlock = 0
		}
		// The scrubber process adds its interrupted pass to ScrubBlocks when
		// the stop flag wakes it, so the counter is read off the drained
		// platform: this experiment loops over runPoint itself.
		pl, err := runPoint(qcfg, func(p *sim.Proc, pl *Platform) error {
			// No read before this one can fail its guard: boot only formats.
			pl.Hyp.Device(0).Ctl.Medium.SetGuardCheck(c.guards)
			tgt, err := pl.RawTarget(p, BackendNeSC, rawImageBlocks)
			if err != nil {
				return err
			}
			if c.scrub {
				// Short verify strides: each stolen device slot stays brief, so
				// the scrubber's head-of-line shadow on the foreground is one
				// small read, not a 64-block sweep.
				pl.Hyp.StartScrubber(hypervisor.ScrubConfig{BlocksPerReq: 8})
			}
			defer pl.Hyp.StopScrubber()

			const bs = 4096
			for _, phase := range []struct {
				name        string
				rand, write bool
				seed        uint64
			}{{"seq write", false, true, 0}, {"seq read", false, false, 0}, {"rand write", true, true, 0xA11CE}, {"rand read", true, false, 0xB0B}} {
				var res workload.Result
				if phase.rand {
					res, err = randIO(p, tgt, bs, integrityOps, phase.write, phase.seed)
				} else {
					res, err = (workload.DD{BlockBytes: bs, TotalBytes: 4 << 20, Write: phase.write}).Run(p, tgt)
				}
				if err != nil {
					return err
				}
				thr.Set(phase.name, c.col, res.BandwidthMBps())
				if phase.name == "rand read" && c.tailCol != "" {
					tail.Set("mean", c.tailCol, res.Lat.Mean())
					tail.Set("p50", c.tailCol, res.Lat.Percentile(50))
					tail.Set("p99", c.tailCol, res.Lat.Percentile(99))
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("integrity cell %s: %w", c.col, err)
		}
		if c.scrub {
			thr.Note("%s: scrubber verified %d blocks during the measurement window", c.col, pl.Hyp.ScrubBlocks)
		}
	}
	thr.Note("guard tags are CRC-32C computed in the data path (no added virtual time); PI rides formerly-reserved descriptor fields")
	thr.Note("the scrubber only wins device slots when the out-of-band and every VF queue are empty (scavenger priority)")
	tail.Note("scavenger-priority scrubbing must not move the foreground tail; compare the p99 row")
	return []*stats.Table{thr, tail}, nil
}
