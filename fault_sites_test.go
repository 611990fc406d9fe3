package nesc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"nesc/internal/fault"
	"nesc/internal/sim"
)

// Fault-site coverage: every injection site the fault package defines must
// be reachable from a chaos plan — consulted by real operations and
// actually fired by an armed schedule. When a new Site is added to the
// enum, this table fails until some scenario below exercises it, so a site
// can never silently exist without a workload path that reaches it.

// classicSitePlan arms the nine single-device sites (loud faults, delayed
// interrupts, and the silent-corruption half) aggressively enough that a
// short seeded workload makes each one fire.
func classicSitePlan(seed uint64) *FaultPlan {
	plan := &FaultPlan{Seed: seed}
	plan.Sites[FaultMediumRead] = FaultSiteParams{Prob: 0.05}
	plan.Sites[FaultMediumWrite] = FaultSiteParams{Prob: 0.02}
	plan.Sites[FaultDMARead] = FaultSiteParams{Prob: 0.02}
	plan.Sites[FaultDMAWrite] = FaultSiteParams{Prob: 0.02}
	plan.Sites[FaultMSI] = FaultSiteParams{Prob: 0.05, DelayProb: 0.1, Delay: 30 * 1000}
	plan.Sites[FaultMissHandler] = FaultSiteParams{Prob: 0.2}
	plan.Sites[FaultMediumCorruptRead] = FaultSiteParams{Prob: 0.03}
	plan.Sites[FaultMediumCorruptWrite] = FaultSiteParams{Prob: 0.01}
	plan.Sites[FaultDMACorrupt] = FaultSiteParams{Prob: 0.05}
	return plan
}

// runClassicSiteScenario drives the single-device sites: two sparse
// file-backed tenants on one controller, direct DMA (no trampoline masking
// DMA faults), lazy allocation (MissHandler), and the scrub-repair read
// path recovering from every loud or silent hit.
func runClassicSiteScenario(t *testing.T) *fault.Injector {
	t.Helper()
	const blockSize = 1024
	const rounds, stripeBlocks = 8, 8
	cfg := DefaultConfig()
	cfg.MediumMB = 16
	cfg.UseIOMMU = true
	cfg.Fault = classicSitePlan(0x517E5)
	cfg.DriverTimeout = 3 * time.Millisecond
	cfg.DriverRetryMax = 8
	s := New(cfg)

	stripe := int64(stripeBlocks * blockSize)
	diskBytes := int64(rounds*stripeBlocks*2) * blockSize
	err := s.Run(func(ctx *Ctx) error {
		for i := 0; i < 2; i++ {
			path := fmt.Sprintf("/site%d.img", i)
			if err := ctx.CreateImage(path, uint32(100+i), diskBytes, true); err != nil {
				return err
			}
			vm, err := ctx.StartVM(fmt.Sprintf("site%d", i), BackendNeSC, path, uint32(100+i))
			if err != nil {
				return err
			}
			want := make([]byte, stripe)
			got := make([]byte, stripe)
			for round := 0; round < rounds; round++ {
				stripePattern(want, i, round)
				if err := writeStripe(ctx, vm, want, int64(round)*stripe); err != nil {
					return err
				}
				vr := round / 2
				stripePattern(want, i, vr)
				if err := readVerified(ctx, vm, want, got, int64(vr)*stripe); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("classic site scenario: %v", err)
	}
	return s.pl.Inj
}

// runDeviceSiteScenario drives the device-scoped sites: a 3-way mirror
// whose plan one-shot-kills one device and later partitions another while
// the guest keeps writing. Every acknowledged write must still read back
// bit-exactly after the fleet is revived and resilvered.
func runDeviceSiteScenario(t *testing.T) *fault.Injector {
	t.Helper()
	plan := &FaultPlan{Seed: 0xFAB12}
	// The ordinals land mid-workload: image creation and mirror bring-up
	// consume ~4100 device draws, the 100-write loop the next ~1200.
	plan.Sites[FaultDeviceKill] = FaultSiteParams{OneShot: []int64{4400}}
	plan.Sites[FaultDevicePartition] = FaultSiteParams{OneShot: []int64{4900}}
	plan.PartitionDuration = 300 * 1000 // 300µs link flap, heals on its own

	cfg := DefaultConfig()
	cfg.Devices = 3
	cfg.MediumMB = 16
	cfg.Fault = plan
	cfg.DriverTimeout = 2 * time.Millisecond
	cfg.DriverRetryMax = 4
	s := New(cfg)

	const stripe = 4096
	final := make(map[int64]int64)
	err := s.Run(func(ctx *Ctx) error {
		for d := 0; d < 3; d++ {
			if err := ctx.CreateImageOn(d, "/site.img", 7, 1<<20, false); err != nil {
				return err
			}
		}
		vm, err := ctx.StartMirroredVM("site", "/site.img", 7, []int{0, 1, 2}, MirrorConfig{
			SuspectThreshold: 2, FailThreshold: 3, RecoverThreshold: 3,
			RegionBlocks: 32, ResilverInterval: 20 * time.Microsecond,
		})
		if err != nil {
			return err
		}
		buf := make([]byte, stripe)
		for i := 0; i < 100; i++ {
			off := int64(i%32) * stripe
			seed := int64(i) + 9000
			fillPattern(buf, seed)
			if err := vm.WriteAt(ctx, buf, off); err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
			final[off] = seed
		}
		// Revive whatever the plan latched and wait for full redundancy.
		for d := 0; d < 3; d++ {
			if err := ctx.ReviveDevice(d); err != nil {
				return err
			}
		}
		healthy := func() bool {
			for _, rs := range vm.FabricStatus() {
				if rs.State != "healthy" || rs.DirtyRegions != 0 {
					return false
				}
			}
			return true
		}
		for i := 0; i < 400 && !healthy(); i++ {
			ctx.Sleep(100 * time.Microsecond)
		}
		if !healthy() {
			return fmt.Errorf("fleet never resilvered: %+v", vm.FabricStatus())
		}
		got, want := make([]byte, stripe), make([]byte, stripe)
		for slot := 0; slot < 32; slot++ {
			off := int64(slot) * stripe
			seed, ok := final[off]
			if !ok {
				continue
			}
			fillPattern(want, seed)
			if err := vm.ReadAt(ctx, got, off); err != nil {
				return fmt.Errorf("read-back at %d: %w", off, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("acked write at %d lost after device faults", off)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("device site scenario: %v", err)
	}
	return s.pl.Inj
}

// runCASSiteScenario drives the remote-tier sites of the content-addressed
// store: a golden image is sealed (RemoteStore consulted on the PUT's retry
// ladder — Prob 1 fires every attempt, and the idempotent PUT still lands),
// forked twice, and each fork read end to end; the first fork's
// materializations consult (and transiently fault) RemoteFetch, the second
// mostly rides the warmed chunk cache.
func runCASSiteScenario(t *testing.T) *fault.Injector {
	t.Helper()
	plan := &FaultPlan{Seed: 0xCA5E}
	plan.Sites[FaultRemoteFetch] = FaultSiteParams{Prob: 0.2, DelayProb: 0.1, Delay: 20 * 1000}
	plan.Sites[FaultRemoteStore] = FaultSiteParams{Prob: 1}
	const blocks, blockSize = 48, 1024
	cfg := DefaultConfig()
	cfg.MediumMB = 16
	cfg.CAS = true
	cfg.Fault = plan
	cfg.DriverTimeout = 5 * time.Millisecond
	cfg.DriverRetryMax = 8
	s := New(cfg)
	err := s.Run(func(ctx *Ctx) error {
		// Per-block-distinct content: stripePattern repeats with a 256-byte
		// period, which would dedup the whole image to one chunk and leave
		// the remote-fetch site nearly unconsulted. Mixing the block index in
		// keeps all 48 chunks unique so every materialization pays a fetch.
		want := make([]byte, blocks*blockSize)
		for i := range want {
			want[i] = byte(i*7 + i/blockSize*131 + 5)
		}
		if err := ctx.CreateImage("/golden.img", 3, blocks*blockSize, true); err != nil {
			return err
		}
		if err := ctx.WriteHostFile("/golden.img", want, 0); err != nil {
			return err
		}
		if _, err := ctx.SealImage("/golden.img", "golden", 3); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			path := fmt.Sprintf("/fork%d.img", i)
			if err := ctx.ForkImage("golden", path, 3); err != nil {
				return err
			}
			vm, err := ctx.StartVM(fmt.Sprintf("fork%d", i), BackendNeSC, path, 3)
			if err != nil {
				return err
			}
			got := make([]byte, blocks*blockSize)
			if err := vm.ReadAt(ctx, got, 0); err != nil {
				return fmt.Errorf("fork %d read: %w", i, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("fork %d content diverged from the sealed image", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("cas site scenario: %v", err)
	}
	return s.pl.Inj
}

// TestFaultSiteTableCoverage merges the per-site counters from the
// scenarios and asserts, site by site, that each one was consulted and
// fired at least once.
func TestFaultSiteTableCoverage(t *testing.T) {
	var ops, faults [fault.NumSites]int64
	for _, in := range []*fault.Injector{
		runClassicSiteScenario(t),
		runDeviceSiteScenario(t),
		runCASSiteScenario(t),
	} {
		for site := fault.Site(0); site < fault.NumSites; site++ {
			ops[site] += in.Ops(site)
			faults[site] += in.Faults(site)
		}
	}
	for site := fault.Site(0); site < fault.NumSites; site++ {
		if ops[site] == 0 {
			t.Errorf("site %-16s unreachable: no operation ever consulted it", site)
			continue
		}
		if faults[site] == 0 {
			t.Errorf("site %-16s inert: %d ops consulted it but the armed plans never fired", site, ops[site])
			continue
		}
		t.Logf("site %-16s ops=%-6d faults=%d", site, ops[site], faults[site])
	}
}

// runDelayScenario drives one small seeded workload — two sparse-image
// tenants writing and reading verified stripes through the lazy-allocation
// path, then a content-addressed seal + fork read so the remote-tier sites
// are consulted inside the measured window — with the given fault plan, and
// returns the injector (nil plan is allowed) plus the workload's
// virtual-time duration.
func runDelayScenario(t *testing.T, plan *FaultPlan) (*fault.Injector, time.Duration) {
	t.Helper()
	const blockSize = 1024
	const rounds, stripeBlocks = 4, 8
	cfg := DefaultConfig()
	cfg.MediumMB = 16
	cfg.UseIOMMU = true
	cfg.CAS = true
	cfg.Fault = plan
	s := New(cfg)

	stripe := int64(stripeBlocks * blockSize)
	diskBytes := int64(rounds*stripeBlocks) * blockSize
	var elapsed time.Duration
	err := s.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/delay.img", 9, diskBytes, true); err != nil {
			return err
		}
		vm, err := ctx.StartVM("delay", BackendNeSC, "/delay.img", 9)
		if err != nil {
			return err
		}
		want := make([]byte, stripe)
		got := make([]byte, stripe)
		start := ctx.Now()
		for round := 0; round < rounds; round++ {
			stripePattern(want, 0, round)
			if err := writeStripe(ctx, vm, want, int64(round)*stripe); err != nil {
				return err
			}
			if err := readVerified(ctx, vm, want, got, int64(round)*stripe); err != nil {
				return err
			}
		}
		// Content-addressed phase: seal the image (RemoteStore on the batched
		// PUT), fork it, and read the fork end to end (RemoteFetch on every
		// chunk materialization).
		if _, err := ctx.SealImage("/delay.img", "delay-golden", 9); err != nil {
			return err
		}
		if err := ctx.ForkImage("delay-golden", "/delay-fork.img", 9); err != nil {
			return err
		}
		fvm, err := ctx.StartVM("delay-fork", BackendNeSC, "/delay-fork.img", 9)
		if err != nil {
			return err
		}
		for round := 0; round < rounds; round++ {
			stripePattern(want, 0, round)
			if err := readVerified(ctx, fvm, want, got, int64(round)*stripe); err != nil {
				return err
			}
		}
		elapsed = ctx.Now() - start
		return nil
	})
	if err != nil {
		t.Fatalf("delay scenario: %v", err)
	}
	return s.pl.Inj, elapsed
}

// TestFaultSiteDelayTable classifies every fault site by whether it honors
// Decision.Delay, and proves it for the ones that do: arming DelayProb=1 on
// exactly that site must both tick its Delays counter and stretch the same
// seeded workload's virtual time past the fault-free baseline. Corruption
// sites flip bits instead of stalling and the device-scoped sites model
// availability, not latency — they are classified delay-less, and a new
// enum entry fails the test until it is classified here.
func TestFaultSiteDelayTable(t *testing.T) {
	delayMeaningful := map[fault.Site]bool{
		fault.MediumRead:         true,
		fault.MediumWrite:        true,
		fault.DMARead:            true,
		fault.DMAWrite:           true,
		fault.MSI:                true,
		fault.MissHandler:        true,
		fault.MediumCorruptRead:  false,
		fault.MediumCorruptWrite: false,
		fault.DMACorrupt:         false,
		fault.DeviceKill:         false,
		fault.DevicePartition:    false,
		fault.RemoteFetch:        true,
		fault.RemoteStore:        true,
	}
	for site := fault.Site(0); site < fault.NumSites; site++ {
		if _, ok := delayMeaningful[site]; !ok {
			t.Fatalf("site %s not classified: add it to the delay table", site)
		}
	}
	_, baseline := runDelayScenario(t, nil)
	if baseline <= 0 {
		t.Fatalf("baseline workload took no virtual time")
	}
	const extra = 100 * time.Microsecond
	for site, meaningful := range delayMeaningful {
		if !meaningful {
			continue
		}
		t.Run(site.String(), func(t *testing.T) {
			plan := &FaultPlan{Seed: 0xDE1A7}
			plan.Sites[site] = FaultSiteParams{DelayProb: 1, Delay: sim.Time(extra)}
			in, elapsed := runDelayScenario(t, plan)
			delays := in.Delays(site)
			if delays == 0 {
				t.Fatalf("site %s: DelayProb=1 plan never injected a delay", site)
			}
			if elapsed <= baseline {
				t.Fatalf("site %s: %d injected delays did not stretch the workload (baseline %v, delayed %v)",
					site, delays, baseline, elapsed)
			}
			t.Logf("site %-14s delays=%-5d baseline=%v delayed=%v", site, delays, baseline, elapsed)
		})
	}
}
