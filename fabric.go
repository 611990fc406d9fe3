package nesc

import (
	"fmt"
	"time"

	"nesc/internal/fabric"
	"nesc/internal/fault"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
)

// Multi-device fabric: a Simulation configured with Config.Devices > 1
// carries a fleet of NeSC controllers on one PCIe fabric, all managed by
// the single hypervisor. Mirrored VMs (StartMirroredVM) get one VF per
// device behind a synchronous mirror — a write is acknowledged only when
// every live replica has it, reads fail over between replicas, a fenced
// device's writes are dirty-tracked and resilvered when it returns, and a
// whole mirror leg can be live-migrated between devices (VM.Migrate).

// The fabric injection sites (armed like any other FaultSite; device kills
// latch until ReviveDevice, partitions heal after PartitionDuration).
const (
	FaultDeviceKill      = fault.DeviceKill
	FaultDevicePartition = fault.DevicePartition
)

// MirrorConfig tunes a mirrored VM's replication behavior. The zero value
// takes the fabric defaults.
type MirrorConfig struct {
	// SuspectThreshold / FailThreshold are the consecutive-error counts
	// that move a replica Healthy→Suspect and Suspect→Failed.
	SuspectThreshold int
	FailThreshold    int
	// RecoverThreshold is the consecutive-success count that clears a
	// Suspect replica.
	RecoverThreshold int
	// RegionBlocks is the dirty-tracking granularity for resilvering.
	RegionBlocks int
	// ResilverInterval paces background resilver copies.
	ResilverInterval time.Duration

	// The gray-failure mitigation stack (DESIGN.md §10); every field zero
	// keeps the classic fail-stop-only behavior and schedule.

	// HedgePercentile (0-100), when positive, arms hedged reads: a read the
	// primary leg has not answered within that percentile of recent
	// delivered read latency launches a speculative second read on the
	// next-best leg; the first success wins. HedgeMinDelay floors the
	// adaptive deadline so a cold window cannot make every read hedge.
	HedgePercentile float64
	HedgeMinDelay   time.Duration
	// SlowFactor, when > 1, arms the per-leg fail-slow detector: a leg
	// whose windowed read p99 exceeds SlowFactor x its learned healthy
	// baseline is quarantined out of read steering (writes continue) for
	// QuarantineDuration, then rejoins with a reset window.
	SlowFactor         float64
	QuarantineDuration time.Duration
}

// ReplicaStatus is one mirror leg's externally visible health.
type ReplicaStatus = fabric.ReplicaStatus

// MigrationReport summarizes one live VF migration.
type MigrationReport = fabric.MigrationReport

// NumDevices reports the fleet size.
func (s *Simulation) NumDevices() int { return s.pl.Hyp.NumDevices() }

// CreateImageOn is CreateImage targeting a specific fleet device's host
// filesystem. A mirrored VM needs its image present on every device it
// spans.
func (c *Ctx) CreateImageOn(dev int, path string, uid uint32, sizeBytes int64, sparse bool) error {
	d, err := c.device(dev)
	if err != nil {
		return err
	}
	bs := uint64(c.s.pl.Cfg.Core.BlockSize)
	blocks := (uint64(sizeBytes) + bs - 1) / bs
	_, err = d.MkImage(c.proc, path, uid, blocks, sparse)
	return err
}

// StartMirroredVM launches a guest whose virtual disk is synchronously
// mirrored across one NeSC VF on each listed device. The image at diskPath
// must already exist on every listed device (CreateImageOn) with identical
// size. The guest sees a single block device and survives the loss of all
// but one replica.
func (c *Ctx) StartMirroredVM(name, diskPath string, uid uint32, devices []int, mc MirrorConfig) (*VM, error) {
	fcfg := fabric.Config{
		SuspectThreshold:   mc.SuspectThreshold,
		FailThreshold:      mc.FailThreshold,
		RecoverThreshold:   mc.RecoverThreshold,
		RegionBlocks:       uint64(mc.RegionBlocks),
		ResilverInterval:   sim.Time(mc.ResilverInterval),
		HedgePercentile:    mc.HedgePercentile,
		HedgeMinDelay:      sim.Time(mc.HedgeMinDelay),
		SlowFactor:         mc.SlowFactor,
		QuarantineDuration: sim.Time(mc.QuarantineDuration),
	}
	vm, err := c.s.pl.Mirrors.NewMirroredVM(c.proc, name, hypervisor.VMConfig{
		Backend:  hypervisor.BackendDirect,
		DiskPath: diskPath,
		UID:      uid,
	}, devices, fcfg)
	if err != nil {
		return nil, err
	}
	return &VM{name: name, vm: vm}, nil
}

// Mirrored reports whether the VM runs on a mirror client.
func (vm *VM) Mirrored() bool { return fabric.ClientOf(vm.vm) != nil }

// FabricStatus snapshots each mirror leg's health (device index, FSM
// state, dirty backlog) — the degraded-mode view an operator would watch.
func (vm *VM) FabricStatus() []ReplicaStatus {
	if c := fabric.ClientOf(vm.vm); c != nil {
		return c.Status()
	}
	return nil
}

// Migrate live-migrates mirror leg slot to fleet device dst: bulk-copy
// under a CoW snapshot, iterative dirty-region pre-copy while the guest
// keeps running, then a bounded stop-and-copy pause in which the leg is
// atomically retargeted to a fresh VF on the destination.
func (vm *VM) Migrate(c *Ctx, slot, dst int) (MigrationReport, error) {
	return c.s.pl.Mirrors.Migrate(c.proc, vm.vm, slot, dst)
}

// KillDevice latches fleet device dev dead — every medium access fails
// until ReviveDevice, exactly as a DeviceKill fault. Requires a fault plan
// (any plan, even one with no sites armed, supplies the injector).
func (c *Ctx) KillDevice(dev int) error {
	if c.s.pl.Inj == nil {
		return fmt.Errorf("nesc: KillDevice requires Config.Fault (an empty plan suffices)")
	}
	c.s.pl.Inj.KillDevice(dev)
	return nil
}

// ReviveDevice clears a device's kill latch and tells every mirror client
// the device is back; fenced replicas enter Rebuilding and the resilver
// copies their dirty backlog from clean peers.
func (c *Ctx) ReviveDevice(dev int) error {
	if c.s.pl.Inj == nil {
		return fmt.Errorf("nesc: ReviveDevice requires Config.Fault")
	}
	c.s.pl.Inj.ReviveDevice(dev)
	c.s.pl.Mirrors.Revive(dev)
	return nil
}

// FabricStats aggregates mirror-fabric counters across every mirrored VM.
type FabricStats struct {
	// Clients counts the running mirrored VMs; the counters below keep what
	// stopped ones did.
	Clients int
	// MirroredWrites were acknowledged by every live replica;
	// DegradedWrites by a strict subset; WriteFailures by none.
	MirroredWrites, DegradedWrites, WriteFailures int64
	// ReadFallbacks are reads retried on a peer after detected corruption;
	// ReadRetries after other errors.
	ReadFallbacks, ReadRetries int64
	// Suspects / Failovers / Recoveries / Revives count replica FSM
	// transitions.
	Suspects, Failovers, Recoveries, Revives int64
	// Resilver progress: regions and blocks copied, and full redundancy
	// restorations completed.
	ResilverRegions, ResilverBlocks, ResilverRestores int64
	// Migrations counts completed live migrations; LastMigrationPause is
	// the most recent one's stop-and-copy window.
	Migrations int64
	// LastFailoverLatency is the largest first-error→fenced latency
	// observed; LastMigrationPause the last migration's guest-visible gap.
	LastFailoverLatency, LastMigrationPause time.Duration
}

// FabricStats snapshots the mirror-fabric counters.
func (s *Simulation) FabricStats() FabricStats {
	fs := s.pl.Mirrors.Stats()
	return FabricStats{
		Clients:             fs.Clients,
		MirroredWrites:      fs.MirroredWrites,
		DegradedWrites:      fs.DegradedWrites,
		WriteFailures:       fs.WriteFailures,
		ReadFallbacks:       fs.ReadFallbacks,
		ReadRetries:         fs.ReadRetries,
		Suspects:            fs.Suspects,
		Failovers:           fs.Failovers,
		Recoveries:          fs.Recoveries,
		Revives:             fs.Revives,
		ResilverRegions:     fs.ResilverRegions,
		ResilverBlocks:      fs.ResilverBlocks,
		ResilverRestores:    fs.ResilverRestores,
		Migrations:          s.pl.Mirrors.Migrations,
		LastFailoverLatency: time.Duration(fs.LastFailoverLatency),
		LastMigrationPause:  time.Duration(s.pl.Mirrors.LastMigration.Pause),
	}
}
