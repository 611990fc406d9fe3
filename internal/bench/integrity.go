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

// randIO issues ops random aligned single-block requests against t. It is
// the random counterpart of workload.DD, kept here because only this
// ablation needs a pure random read or pure random write phase.
func randIO(p *sim.Proc, t workload.ByteTarget, blockBytes, ops int, write bool, seed uint64) (workload.Result, error) {
	res := workload.Result{Name: fmt.Sprintf("rand %s", map[bool]string{true: "write", false: "read"}[write])}
	slots := t.Size() / int64(blockBytes)
	if slots <= 0 {
		return res, fmt.Errorf("bench: target smaller than one block")
	}
	state := seed
	start := p.Now()
	for i := 0; i < ops; i++ {
		state = integrityMix(state)
		off := int64(state%uint64(slots)) * int64(blockBytes)
		opStart := p.Now()
		var err error
		if write {
			err = t.WriteAt(p, off, blockBytes)
		} else {
			err = t.ReadAt(p, off, blockBytes)
		}
		if err != nil {
			return res, err
		}
		res.Ops++
		res.Bytes += int64(blockBytes)
		res.Lat.Add((p.Now() - opStart).Micros())
	}
	res.Elapsed = p.Now() - start
	return res, nil
}

// integrityCell runs the four raw phases (seq read/write, rand read/write,
// 4 KB requests on a direct NeSC VF) on one platform configuration and hands
// each phase's result to set. Guards covers both the medium's read-side
// guard verification and the wire-level protection information; scrub runs
// the paced background scrubber for the whole measurement window.
func integrityCell(cfg Config, guards, scrub bool, set func(phase string, res workload.Result)) (scrubBlocks int64, err error) {
	qcfg := cfg
	if !guards {
		qcfg.Hyp.Ring.PIBlock = 0
	}
	pl := NewPlatform(qcfg)
	if !guards {
		pl.Hyp.Device(0).Ctl.Medium.SetGuardCheck(false)
	}
	err = pl.Run(func(p *sim.Proc) error {
		tgt, err := pl.rawTarget(p, BackendNeSC, rawImageBlocks)
		if err != nil {
			return err
		}
		if scrub {
			// Short verify strides: each stolen device slot stays brief, so
			// the scrubber's head-of-line shadow on the foreground is one
			// small read, not a 64-block sweep.
			pl.Hyp.StartScrubber(hypervisor.ScrubConfig{BlocksPerReq: 8})
		}
		defer pl.Hyp.StopScrubber()

		const bs = 4096
		const total = 4 << 20
		for _, phase := range []struct {
			name  string
			write bool
		}{{"seq write", true}, {"seq read", false}} {
			res, err := (workload.DD{BlockBytes: bs, TotalBytes: total, Write: phase.write}).Run(p, tgt)
			if err != nil {
				return err
			}
			set(phase.name, res)
		}
		for _, phase := range []struct {
			name  string
			write bool
			seed  uint64
		}{{"rand write", true, 0xA11CE}, {"rand read", false, 0xB0B}} {
			res, err := randIO(p, tgt, bs, integrityOps, phase.write, phase.seed)
			if err != nil {
				return err
			}
			set(phase.name, res)
		}
		return nil
	})
	// Read the counter only after the engine drains: the scrubber proc
	// accumulates its interrupted pass when the stop flag wakes it.
	return pl.Hyp.ScrubBlocks, err
}

// AblationIntegrity measures what end-to-end data integrity costs: per-block
// guard tags (CRC-32C at the medium plus wire-level protection information)
// and the background scrubber, each toggled independently — the 2x2 the
// integrity work promises to keep cheap. Guard math is modeled as pipelined
// into the data movement (it adds no virtual time), so the guard columns
// quantify "free by construction"; the scrub columns expose whatever
// contention the scavenger-priority scrubber leaks into the foreground.
//
// A second table isolates the tail: foreground random-read latency with and
// without the scrubber sweeping underneath, mean/p50/p99.
func AblationIntegrity(cfg Config) ([]*stats.Table, error) {
	cells := []struct {
		col           string
		guards, scrub bool
	}{
		{"no-integrity", false, false},
		{"guards", true, false},
		{"scrub-only", false, true},
		{"guards+scrub", true, true},
	}
	var cols []string
	for _, c := range cells {
		cols = append(cols, c.col)
	}
	thr := stats.NewTable("Integrity ablation: guard tags x scrubber (4KB raw, direct VF)",
		"workload", "MB/s", cols...)
	var lats [2]workload.Result // rand read result with guards, scrub off/on
	for _, c := range cells {
		c := c
		blocks, err := integrityCell(cfg, c.guards, c.scrub, func(phase string, res workload.Result) {
			thr.Set(phase, c.col, res.BandwidthMBps())
			if phase == "rand read" && c.guards {
				if c.scrub {
					lats[1] = res
				} else {
					lats[0] = res
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("integrity cell %s: %w", c.col, err)
		}
		if c.scrub {
			thr.Note("%s: scrubber verified %d blocks during the measurement window", c.col, blocks)
		}
	}
	thr.Note("guard tags are CRC-32C computed in the data path (no added virtual time); PI rides formerly-reserved descriptor fields")
	thr.Note("the scrubber only wins device slots when the out-of-band and every VF queue are empty (scavenger priority)")

	tail := stats.NewTable("Scrubber foreground impact (rand 4KB reads, guards on)",
		"latency", "us", "scrub off", "scrub on")
	for i, col := range []string{"scrub off", "scrub on"} {
		tail.Set("mean", col, lats[i].Lat.Mean())
		tail.Set("p50", col, lats[i].Lat.Percentile(50))
		tail.Set("p99", col, lats[i].Lat.Percentile(99))
	}
	tail.Note("scavenger-priority scrubbing must not move the foreground tail; compare the p99 row")
	return []*stats.Table{thr, tail}, nil
}
