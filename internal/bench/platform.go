// Package bench is the experiment harness: it assembles complete simulated
// platforms (host memory + PCIe fabric + medium + NeSC controller +
// hypervisor) and regenerates every table and figure of the paper's
// evaluation (§VI–VII), plus the ablations called out in DESIGN.md.
package bench

import (
	"cmp"
	"fmt"

	"nesc/internal/blockdev"
	"nesc/internal/cas"
	"nesc/internal/core"
	"nesc/internal/extfs"
	"nesc/internal/fabric"
	"nesc/internal/fault"
	"nesc/internal/hostmem"
	"nesc/internal/hypervisor"
	"nesc/internal/metrics"
	"nesc/internal/pcie"
	"nesc/internal/sim"
)

// Config fully describes one simulated platform.
type Config struct {
	MediumBlocks int64
	Core         core.Params
	Medium       blockdev.MediumParams
	PCIe         pcie.Params
	Hyp          hypervisor.Params
	HostFS       extfs.Params
	// NumDevices sizes the NeSC fleet. Zero or one assembles the classic
	// single-device platform, byte-identical to pre-fleet builds. Each
	// extra device gets its own store, medium, and controller (DeviceID set
	// so its pipelines and functions carry a distinguishing name) on the
	// same PCIe fabric, managed by the one hypervisor.
	NumDevices int
	// Fault, when set, arms a seeded fault injector across the medium, the
	// PCIe fabric, and the hypervisor's miss-service path.
	Fault *fault.Plan
	// CAS enables the content-addressed block tier: a fleet-shared
	// refcounted chunk store (simulated remote object tier) with per-device
	// LRU chunk caches, reached through SealImage / ForkImage and the
	// MissReasonFetch materialization path. Off (the default), the platform
	// is byte-identical to pre-cas builds.
	CAS bool
	// CASCacheChunks sizes each device's local chunk cache (0 = default 64).
	CASCacheChunks int
	// SeedStore, when set, backs the medium with an existing store instead of
	// a fresh zeroed one — the surviving durable state of a crashed platform.
	SeedStore *blockdev.Store
	// MountExisting makes Run mount the host filesystem already on the
	// medium (journal replay included) instead of formatting a new one.
	MountExisting bool
	// Tel is the telemetry bundle: every controller, the hypervisor, and the
	// drivers and fabric clients it builds are handed it at construction,
	// and the platform's counter catalogue registers into its registry.
	// Counters and histograms accumulate across platforms sharing a bundle;
	// gauge closures are replaced, so the last platform built wins the live
	// gauges. The zero value turns telemetry off.
	Tel core.Sinks
}

// hostMemBytes is the host's RAM (Table I).
const hostMemBytes = 512 << 20

// DefaultConfig is the calibrated model of the paper's platform (Table I):
// a Xeon host, PCIe gen2 x8, the Virtex-7 NeSC prototype with 1 GB of
// on-board DDR3, QEMU/KVM with 128 MB guests. The medium is sized down to
// 128 MB so experiment suites stay fast; geometry-independent results are
// unaffected.
func DefaultConfig() Config {
	return Config{
		MediumBlocks: 128 * 1024, // 128 MB of 1 KB blocks
		Core:         core.DefaultParams(),
		Medium:       blockdev.DefaultMediumParams(),
		PCIe:         pcie.DefaultParams(),
		Hyp:          hypervisor.DefaultParams(),
		HostFS:       extfs.Params{InodeCount: 512, JournalBlocks: 256, Mode: extfs.JournalMetadata},
	}
}

// Platform is one assembled world.
type Platform struct {
	Cfg Config
	Eng *sim.Engine
	Mem *hostmem.Memory
	Fab *pcie.Fabric
	Hyp *hypervisor.Hypervisor
	// Mirrors holds the platform's mirrored VMs: they are created, revived,
	// migrated and counted through it.
	Mirrors *fabric.Fleet
	// CAS is the content-addressed tier over the fleet; its Store is nil
	// unless Cfg.CAS is set.
	CAS *cas.Tier
	// Inj is the armed fault injector, nil when Cfg.Fault is unset.
	Inj *fault.Injector

	counters []Counter // the catalogue, built on first use (catalogue.go)
}

// NewPlatform assembles a platform from cfg. It panics on configuration
// errors: the harness treats those as bugs, not runtime conditions.
func NewPlatform(cfg Config) *Platform {
	if cfg.Fault != nil && cfg.Core.MissResendInterval == 0 {
		// Under fault injection a dropped miss MSI would park walkers
		// forever; arm the device's miss-resend timer unless the caller chose
		// a cadence.
		cfg.Core.MissResendInterval = 100 * sim.Microsecond
	}
	eng := sim.NewEngine()
	mem := hostmem.New(hostMemBytes)
	fab := pcie.New(eng, mem, cfg.PCIe)
	h := hypervisor.New(eng, mem, fab, cfg.Hyp, cfg.Tel)
	pl := &Platform{Cfg: cfg, Eng: eng, Mem: mem, Fab: fab, Hyp: h, Mirrors: fabric.NewFleet(h, cfg.Tel)}
	for i := 0; i < max(cfg.NumDevices, 1); i++ {
		// Only device 0 can adopt a surviving store.
		store := cfg.SeedStore
		if store == nil || i > 0 {
			store = blockdev.NewStore(cfg.Core.BlockSize, cfg.MediumBlocks)
		}
		params := cfg.Core
		params.DeviceID = i
		ctl, err := core.New(eng, fab, blockdev.NewMedium(eng, store, cfg.Medium), params, cfg.Tel)
		if err != nil {
			panic(err)
		}
		h.AddDevice(ctl)
	}
	if cfg.Fault != nil {
		pl.Inj = fault.NewInjector(*cfg.Fault)
		for _, d := range h.Devices() {
			d.Ctl.Medium.SetInjector(pl.Inj)
			d.Ctl.Inj = pl.Inj
		}
		fab.SetInjector(pl.Inj)
		h.SetInjector(pl.Inj)
	}
	var store *cas.Store
	if cfg.CAS {
		store = cas.NewStore(cas.DefaultParams(cfg.Core.BlockSize), pl.Inj)
	}
	pl.CAS = cas.NewTier(store, cmp.Or(cfg.CASCacheChunks, 64), cfg.Tel.Attrib)
	if reg := cfg.Tel.Metrics; reg != nil {
		for _, c := range pl.Counters() {
			if c.Family != "" {
				reg.GaugeFunc(c.Family, c.Help, metrics.NoLabels, c.Get)
			}
		}
	}
	return pl
}

// Run boots the platform and executes fn as its initial host process, drives
// the simulation to quiescence, and shuts the engine down. It returns an
// error if booting failed or fn blocked forever (a modeling deadlock).
func (pl *Platform) Run(fn func(p *sim.Proc) error) error {
	var ferr error
	finished := false
	pl.Eng.Go("bench-main", func(p *sim.Proc) {
		if ferr = pl.boot(p); ferr == nil {
			ferr = fn(p)
		}
		finished = true
	})
	pl.Eng.Run()
	pl.Eng.Shutdown()
	if !finished {
		return fmt.Errorf("bench: platform main process deadlocked")
	}
	return ferr
}

// boot formats the host filesystem on the physical function — or, on a
// platform adopting a crashed store (Config.MountExisting), remounts it,
// replaying the journal. It is the first thing the main process does.
func (pl *Platform) boot(p *sim.Proc) error {
	return pl.Hyp.Boot(p, !pl.Cfg.MountExisting, pl.Cfg.HostFS)
}

// RunUntil is Run with a power cut: the simulation stops dead at virtual
// time t, in-flight work and all. No error is returned — a "deadlocked" main
// process is exactly what a crash looks like. The medium's Store (and its
// write log, if enabled) is the only state that survives.
func (pl *Platform) RunUntil(t sim.Time, fn func(p *sim.Proc) error) {
	pl.Eng.Go("bench-main", func(p *sim.Proc) {
		if pl.boot(p) == nil {
			_ = fn(p)
		}
	})
	pl.Eng.RunUntil(t)
	pl.Eng.Shutdown()
}
