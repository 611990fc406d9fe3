package bench

import (
	"bytes"
	"fmt"

	"nesc/internal/fabric"
	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/stats"
)

// Fabric measures the multi-device robustness layer.
//
// The first table is the failover timeline of a 3-way synchronous mirror:
// write latency while all replicas are healthy, while one device is
// kill-latched mid-workload (the mirror fences it after its error
// hysteresis and continues degraded), and after the device returns and the
// background resilver restores redundancy. Every pass verifies its data
// bit-exactly; acknowledged writes must never be lost.
//
// The second table is a live VF migration under write load: bulk copy
// under a CoW snapshot, iterative dirty-region pre-copy, and the bounded
// stop-and-copy pause in which the mirror leg is atomically retargeted.
func Fabric(cfg Config) ([]*stats.Table, error) {
	fo, err := fabricFailover(cfg)
	if err != nil {
		return nil, err
	}
	mig, err := fabricMigration(cfg)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{fo, mig}, nil
}

// fabricStripe is the write unit of both workloads.
const fabricStripe = 4096

func fabricFill(p []byte, seed int64) {
	s := uint64(seed)*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3
	for i := range p {
		s = s*6364136223846793005 + 1442695040888963407
		p[i] = byte(s >> 33)
	}
}

// mirroredVM is directVM's mirrored form: the image is made on every listed
// device, and the guest's one disk is a synchronous mirror over a VF of each.
func (pl *Platform) mirroredVM(p *sim.Proc, name, path string, uid uint32, blocks uint64, devices []int, fc fabric.Config) (*hypervisor.VM, error) {
	for _, di := range devices {
		if err := pl.Hyp.Device(di).MkImage(p, path, uid, blocks, false); err != nil {
			return nil, err
		}
	}
	return pl.Mirrors.NewMirroredVM(p, name, hypervisor.VMConfig{
		Backend: hypervisor.BackendDirect, DiskPath: path, UID: uid,
	}, devices, fc)
}

// lostStripes reads stripes [0, slots) of the guest's disk back and counts
// those that do not hold the content seedOf names (ok false: never written,
// skipped). Always in slot order: ranging over a map of what was written
// would randomize the simulated read sequence and break byte-identical output.
func lostStripes(p *sim.Proc, k *guest.Kernel, slots int, seedOf func(slot int) (seed int64, ok bool)) int {
	lost := 0
	want := make([]byte, fabricStripe)
	got := make([]byte, fabricStripe)
	for s := 0; s < slots; s++ {
		seed, ok := seedOf(s)
		if !ok {
			continue
		}
		fabricFill(want, seed)
		if err := k.ReadBytes(p, int64(s)*fabricStripe, got); err != nil || !bytes.Equal(got, want) {
			lost++
		}
	}
	return lost
}

func fabricFailover(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("Fabric: 3-way mirror failover (kill one device mid-workload, resilver on revive)",
		"phase", "", "writes acked", "mean write us", "lost writes")
	cfg.NumDevices = 3
	cfg.Fault = &fault.Plan{Seed: 7}
	_, err := runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
		vm, err := pl.mirroredVM(p, "fab", "/fab.img", 1, 1024, []int{0, 1, 2}, fabric.Config{
			SuspectThreshold: 2, FailThreshold: 3, RecoverThreshold: 3,
			RegionBlocks: 32, ResilverInterval: 20 * sim.Microsecond,
		})
		if err != nil {
			return err
		}
		const slots = 64
		final := make(map[int]int64) // slot -> seed of its last acknowledged write
		buf := make([]byte, fabricStripe)
		seedBase := int64(0)
		pass := func(row string, writes int) error {
			var total sim.Time
			for i := 0; i < writes; i++ {
				seed := seedBase + int64(i)
				fabricFill(buf, seed)
				start := p.Now()
				if err := vm.Kernel.WriteBytes(p, int64(i%slots)*fabricStripe, buf); err != nil {
					return fmt.Errorf("%s write %d: %w", row, i, err)
				}
				total += p.Now() - start
				final[i%slots] = seed
			}
			seedBase += int64(writes)
			lost := lostStripes(p, vm.Kernel, slots, func(s int) (int64, bool) { seed, ok := final[s]; return seed, ok })
			tbl.SetRow(row, float64(writes), float64(total)/float64(writes)/1000, float64(lost))
			return nil
		}
		if err := pass("healthy 3/3", 96); err != nil {
			return err
		}
		// Kill device 2 a few stripes into the degraded pass.
		pl.Eng.Go("device-killer", func(kp *sim.Proc) {
			kp.Sleep(100 * sim.Microsecond)
			pl.Inj.KillDevice(2)
		})
		if err := pass("degraded 2/3", 96); err != nil {
			return err
		}
		pl.Inj.ReviveDevice(2)
		pl.Mirrors.Revive(2)
		for i := 0; i < 400; i++ {
			if st := fabric.ClientOf(vm).Status(); st[2].State == "healthy" {
				break
			}
			p.Sleep(100 * sim.Microsecond)
		}
		if st := fabric.ClientOf(vm).Status(); st[2].State != "healthy" {
			return fmt.Errorf("resilver did not restore device 2: %+v", st)
		}
		if err := pass("rebuilt 3/3", 96); err != nil {
			return err
		}
		fs := pl.Mirrors.Stats()
		tbl.Note("failover latency (first error to fenced): %.1f us; degraded writes: %d; write failures: %d",
			float64(fs.LastFailoverLatency)/1000, fs.DegradedWrites, fs.WriteFailures)
		tbl.Note("resilver copied %d blocks in %d regions and restored full redundancy %d time(s)",
			fs.ResilverBlocks, fs.ResilverRegions, fs.ResilverRestores)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("writes are acknowledged only when every live replica has them; a fenced replica's misses are dirty-tracked and resilvered on revive")
	return tbl, nil
}

func fabricMigration(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("Fabric: live VF migration under write load (1 MB image, device 0 to 1)",
		"metric", "", "value")
	cfg.NumDevices = 2
	cfg.Fault = &fault.Plan{Seed: 7}
	_, err := runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
		vm, err := pl.mirroredVM(p, "mig", "/mig.img", 1, 1024, []int{0}, fabric.Config{})
		if err != nil {
			return err
		}
		// A wide write span (192 slots = 12 dirty regions) forces the
		// migration through its iterative pre-copy phase before converging.
		const slots = 192
		final := make(map[int]int64)
		writer := pl.fanOut()
		writer.Go("mig-writer", func(wp *sim.Proc) error {
			buf := make([]byte, fabricStripe)
			for i := 0; i < 256; i++ {
				// Stride across the span so consecutive writes land in
				// different migration regions — the worst case for pre-copy.
				slot := i * 37 % slots
				seed := int64(i) + 9000
				fabricFill(buf, seed)
				if err := vm.Kernel.WriteBytes(wp, int64(slot)*fabricStripe, buf); err != nil {
					return fmt.Errorf("writer %d: %w", i, err)
				}
				final[slot] = seed
			}
			return nil
		})
		p.Sleep(150 * sim.Microsecond)
		rep, err := pl.Mirrors.Migrate(p, vm, 0, 1)
		if err != nil {
			return err
		}
		if err := writer.Wait(p); err != nil {
			return err
		}
		lost := lostStripes(p, vm.Kernel, slots, func(s int) (int64, bool) { seed, ok := final[s]; return seed, ok })
		tbl.SetRow("bulk copy blocks", float64(rep.BulkBlocks))
		tbl.SetRow("pre-copy passes", float64(rep.Passes))
		tbl.SetRow("pre-copy blocks", float64(rep.PassBlocks))
		tbl.SetRow("stop-and-copy blocks", float64(rep.PauseBlocks))
		tbl.SetRow("pause us", float64(rep.Pause)/1000)
		tbl.SetRow("total us", float64(rep.Total)/1000)
		tbl.SetRow("lost writes", float64(lost))
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("the guest keeps writing throughout; submissions gate only inside the pause window, which covers the final dirty copy and the atomic VF retarget")
	return tbl, nil
}
