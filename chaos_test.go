package nesc

import (
	"errors"
	"flag"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"nesc/internal/extent"
	"nesc/internal/extfs"
	"nesc/internal/fault"
	"nesc/internal/hypervisor"
)

// The soak: one runner (runSoak) over one feature table (soakRows). A row
// arms fault groups and features on one platform, runs its tenants with N
// clients each through its phases while every byte is held to the oracle
// (oracle_test.go), and ends in one quiesce sweep. TestSoak runs each row
// twice under its seed — the runs must agree on every counter, the fault
// sequence, the virtual end time and the sinks' exports — and once under
// another seed, which must draw a different fault sequence. The fault-site
// tests (fault_sites_test.go) read the same rows.

// faultGroup is a set of fault-plan groups; a row's plan is their union.
type faultGroup uint8

const (
	loud    faultGroup = 1 << iota // transient medium and DMA errors, lost and late MSIs, failed lazy allocation, latent sectors
	corrupt                        // silent flips on the medium and the DMA path, latched corrupt sectors
	remote                         // the chunk store's GETs and PUTs
	device                         // a one-shot device kill and a one-shot partition that heals
)

const (
	stripe = 16 // blocks per worker write
	// rawLBA is the raw tenant's first block: physical LBAs the host
	// filesystem never reaches on the soak's 16 MB medium, so latched sectors
	// there hit only tenant data. Random latent latching (LatentProb) stays
	// off: a latent sector in host-filesystem metadata would be lost for good.
	rawLBA = 12000
	farLBA = 16000 // latches no tenant touches: only a scrub heals them
)

func (g faultGroup) plan(seed uint64) *FaultPlan {
	p := &FaultPlan{Seed: seed}
	if g&loud != 0 {
		p.Sites[FaultMediumRead] = FaultSiteParams{Prob: 0.015}
		p.Sites[FaultMediumWrite] = FaultSiteParams{Prob: 0.005}
		p.Sites[FaultDMARead] = FaultSiteParams{Prob: 0.002}
		p.Sites[FaultDMAWrite] = FaultSiteParams{Prob: 0.002} // a 16 KB read is 16+ payload DMAs
		p.Sites[FaultMSI] = FaultSiteParams{Prob: 0.02, DelayProb: 0.05, Delay: 30 * 1000}
		p.Sites[FaultMissHandler] = FaultSiteParams{Prob: 0.05}
		p.LatentSectors = append(p.LatentSectors, rawLBA+1, rawLBA+3, rawLBA+10) // the raw tenant's stripe 0
	}
	if g&corrupt != 0 {
		p.Sites[FaultMediumCorruptRead] = FaultSiteParams{Prob: 0.005}
		p.Sites[FaultMediumCorruptWrite] = FaultSiteParams{Prob: 0.002} // low enough for scrub repairs to converge
		p.Sites[FaultDMACorrupt] = FaultSiteParams{Prob: 0.01}
		p.CorruptSectors = append(p.CorruptSectors, rawLBA+stripe+1, rawLBA+stripe+5, farLBA+1, farLBA+7) // stripe 1
		p.LatentSectors = append(p.LatentSectors, farLBA, farLBA+3)
	}
	if g&remote != 0 {
		p.Sites[FaultRemoteFetch] = FaultSiteParams{Prob: 0.05, DelayProb: 0.1, Delay: 25 * 1000}
		p.Sites[FaultRemoteStore] = FaultSiteParams{Prob: 0.3}
	}
	if g&device != 0 {
		// Mid-workload: bringing a three-way mirror up draws about 1,000.
		p.Sites[FaultDeviceKill] = FaultSiteParams{OneShot: []int64{3000}}
		p.Sites[FaultDevicePartition] = FaultSiteParams{OneShot: []int64{6000}}
		p.PartitionDuration = 300 * 1000
	}
	return p
}

// feature is a set of what a row arms besides its faults.
type feature uint16

const (
	flr        feature = 1 << iota // one function-level reset per VF, mid-run
	snaps                          // snapshot/clone churn over every file-backed disk
	slow                           // fail-slow degrade/recover churn on device 0
	cas                            // the chunk store with a tiny cache, and seal/fork/release churn
	kill                           // a kill and revive of a device only the mirror uses
	drain                          // scrub passes until every latch has drained
	scrubber                       // the background scrubber, the whole run
	sinks                          // all six telemetry sinks
	hedge                          // hedged mirror reads
	migrate                        // one live migration of a mirror leg
	everything = 1<<iota - 1
)

// soakRow is one simulation of the soak.
type soakRow struct {
	name    string
	seed    uint64
	faults  faultGroup
	arms    feature
	devices int   // fleet size (0: one)
	queues  int   // queue pairs per VF (0: one)
	files   int   // sparse file-backed disks, one VM each
	raw     bool  // a raw tenant on the plan's latched sectors, probed first
	shared  bool  // one sparse disk exported by two VFs: one tree, two BTLB keys
	mirror  []int // the mirrored disk's devices
	clients int   // workers per VM (0: one)
	rounds  int   // stripes each worker writes
	nonzero string
}

// soakRows is the table. nonzero names the Stats and FabricStats counters a
// row must move; every row's runner also holds VFResets, Snapshots and Clones
// to what it did, and its sweep to the quiesce invariants.
var soakRows = []soakRow{
	{name: "loud", seed: 0xC0FFEE, faults: loud, arms: flr | snaps, files: 4, raw: true, rounds: 16,
		nonzero: "InjectedFaults MediumRetries DroppedMSIs DriverTimeouts VFResets LatentHits LatentRepaired CowFaults CowBreaks"},
	{name: "multi-queue", seed: 0xC0FFEE, faults: loud, arms: flr | snaps, queues: 4, files: 4, raw: true, rounds: 12,
		nonzero: "InjectedFaults DriverTimeouts VFResets PolledCompletions"},
	{name: "fail-slow", seed: 0x51085, faults: loud, arms: slow, files: 3, rounds: 12,
		nonzero: "InjectedFaults DegradedOps DegradedTime"},
	{name: "corrupt", seed: 0xDEC0DE, faults: corrupt, arms: drain, files: 3, raw: true, rounds: 12,
		nonzero: "CorruptionsInjected CorruptionsDetected MediumGuardErrors IntegrityRepairs PIWriteErrors ScrubChunks RecoveryReads"},
	{name: "scrubber", seed: 0xFEED, faults: corrupt, arms: scrubber, files: 2, rounds: 6,
		nonzero: "ScrubChunks ScrubBlocks"},
	{name: "cas", seed: 0xCA5CADE, faults: loud | remote, arms: cas, files: 1, rounds: 8,
		nonzero: "InjectedFaults CASDedupHits CASFetchMisses CASMaterializations CASRemoteRetries CASCacheEvictions CASReleases CASChunksLive"},
	{name: "device", seed: 0xFAB12, faults: loud | device, devices: 3, mirror: []int{0, 1, 2}, rounds: 24,
		nonzero: "DegradedWrites Failovers ResilverRestores"},
	// Deadlines and admission control stay out: nesc.Config cannot arm them.
	// So does the device group: its one-shot kill latches whichever device
	// draws it, so all kills device 2, which only the mirror uses, by hand.
	{name: "all", seed: 0xA11, faults: loud | corrupt | remote, arms: everything, devices: 3, queues: 4,
		files: 2, raw: true, shared: true, mirror: []int{1, 2}, clients: 2, rounds: 8,
		nonzero: "InjectedFaults MediumRetries DroppedMSIs DriverTimeouts VFResets LatentHits LatentRepaired CowFaults CowBreaks " +
			"PolledCompletions DegradedOps DegradedTime CorruptionsInjected CorruptionsDetected MediumGuardErrors " +
			"IntegrityRepairs PIWriteErrors ScrubChunks ScrubBlocks RecoveryReads CASDedupHits CASFetchMisses " +
			"CASMaterializations CASRemoteRetries CASCacheEvictions CASReleases CASChunksLive DegradedWrites " +
			"Failovers ResilverRestores Migrations HedgedReads AnomalyEvents"},
}

// soakResult is everything two same-seed runs of a row must agree on.
type soakResult struct {
	stats          Stats
	fabric         FabricStats
	summary        string
	metrics, board string // the sinks' exports
	ops, faults    [fault.NumSites]int64
	delays         [fault.NumSites]int64
}

// soakRun is one row's simulation in flight.
type soakRun struct {
	row                       soakRow
	s                         *Simulation
	tenants                   []*tenant
	raw                       *tenant
	mirror                    *VM
	tasks                     []*Task
	leases                    []int // each device's leased queues before any VM
	resets, snapshots, clones int64
}

// runSoak runs row under plan and returns its fingerprint; any error — a byte
// off the oracle, a failed sweep, a stalled submitter — fails t.
func runSoak(t *testing.T, row soakRow, plan *FaultPlan) soakResult {
	t.Helper()
	res, err := soak(row, plan)
	if err != nil {
		t.Fatalf("soak %s (seed %#x): %v", row.name, plan.Seed, err)
	}
	return res
}

// soak is runSoak returning the run's error instead of failing a test.
func soak(row soakRow, plan *FaultPlan) (soakResult, error) {
	cfg := DefaultConfig()
	cfg.MediumMB = 16   // full-device scrub passes stay cheap
	cfg.UseIOMMU = true // direct DMA: no trampoline copies masking DMA faults
	cfg.Fault = plan
	cfg.DriverTimeout = 3 * time.Millisecond
	cfg.DriverRetryMax = 8
	cfg.QueuesPerVF = row.queues
	cfg.Devices = row.devices
	cfg.CAS = row.arms&cas != 0
	cfg.CASCacheChunks = 16 // working sets far exceed it: the cache keeps evicting
	cfg.Scrub = row.arms&scrubber != 0
	cfg.ScrubInterval = 50 * time.Microsecond
	if row.arms&sinks != 0 {
		cfg.TraceEvents, cfg.TraceSpans, cfg.Metrics, cfg.Attribution = 256, 256, true, true
		cfg.SLO, cfg.ScoreboardEvents = &SLOObjective{Latency: 500 * time.Microsecond}, 256
	}
	r := &soakRun{row: row, s: New(cfg)}
	if err := r.s.Run(r.run); err != nil {
		return soakResult{}, err
	}
	var metrics strings.Builder
	r.s.WriteMetrics(&metrics)
	res := soakResult{stats: r.s.Stats(), fabric: r.s.FabricStats(), summary: r.s.FaultSummary(),
		metrics: metrics.String(), board: r.s.ScoreboardDump()}
	for site := fault.Site(0); site < fault.NumSites; site++ {
		in := r.s.pl.Inj
		res.ops[site], res.faults[site], res.delays[site] = in.Ops(site), in.Faults(site), in.Delays(site)
	}
	return res, nil
}

func (r *soakRun) run(ctx *Ctx) error {
	row := r.row
	for _, d := range r.s.pl.Hyp.Devices() {
		r.leases = append(r.leases, d.Ctl.LeasedQueues())
	}
	if err := r.boot(ctx); err != nil {
		return err
	}
	if err := r.probe(ctx); err != nil {
		return err
	}
	r.workers(ctx)
	if row.arms&slow != 0 {
		r.spawn(ctx, "fail-slow churn", failSlowChurn)
	}
	if row.arms&cas != 0 {
		r.spawn(ctx, "cas churn", casChurn)
	}
	if row.arms&(kill|migrate) != 0 {
		r.spawn(ctx, "fleet churn", r.fleetChurn)
	}
	if row.arms&flr != 0 {
		// Every VF takes one forced reset while its workers are in flight.
		for _, tn := range r.tenants {
			for _, vm := range tn.vms {
				if vm == r.mirror {
					continue // a mirror's legs have no one function to reset
				}
				ctx.Sleep(2 * time.Millisecond)
				if err := vm.Reset(ctx); err != nil {
					return err
				}
				r.resets++
			}
		}
	}
	var errs []error
	for _, tk := range r.tasks {
		errs = append(errs, tk.Wait(ctx))
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if row.arms&snaps != 0 {
		for i, tn := range r.tenants {
			if tn != r.raw && tn.vms[0] != r.mirror {
				if err := r.snapshotChurn(ctx, i, tn); err != nil {
					return fmt.Errorf("snapshot churn on disk %d: %w", i, err)
				}
			}
		}
	}
	if row.arms&drain != 0 {
		// The far latches are live unless a background scrubber got there:
		// only a scrub can heal them, so the drain has something to prove.
		if st := r.s.Stats(); row.arms&scrubber == 0 && (st.LatentOutstanding == 0 || st.CorruptOutstanding == 0) {
			return fmt.Errorf("no live latches before the drain (latent %d, corrupt %d)", st.LatentOutstanding, st.CorruptOutstanding)
		}
		// A scrub's own repair writes can latch fresh corruption: a few passes.
		for pass := 0; pass < 10 && r.latches() != 0; pass++ {
			ctx.Scrub()
		}
		if n := r.latches(); n != 0 {
			return fmt.Errorf("%d latched sectors left after the drain", n)
		}
	}
	return r.sweep(ctx)
}

// boot creates the row's disks and starts the VMs that export them. A
// file-backed disk's owner is 100 plus its index.
func (r *soakRun) boot(ctx *Ctx) error {
	row, clients := r.row, max(r.row.clients, 1)
	add := func(base int64, vms ...*VM) *tenant {
		blocks := int64(row.rounds * len(vms) * clients * stripe)
		tn := &tenant{disk: newDisk(uint64(len(r.tenants)+1), blocks), vms: vms, base: base}
		r.tenants = append(r.tenants, tn)
		return tn
	}
	// image adds a sparse disk exported by n VMs.
	image := func(name string, n int) error {
		path, uid := "/"+name+".img", uint32(100+len(r.tenants))
		err := ctx.CreateImage(path, uid, int64(row.rounds*n*clients*stripe)*soakBlock, true)
		vms := make([]*VM, n)
		for i := 0; i < n && err == nil; i++ {
			vms[i], err = ctx.StartVM(fmt.Sprintf("%s.%d", name, i), BackendNeSC, path, uid)
		}
		add(0, vms...)
		return err
	}
	for i := 0; i < row.files; i++ {
		if err := image(fmt.Sprintf("tenant%d", i), 1); err != nil {
			return err
		}
	}
	if row.shared {
		if err := image("shared", 2); err != nil {
			return err
		}
	}
	if row.raw {
		vm, err := ctx.StartRawVM("raw", BackendNeSC)
		if err != nil {
			return err
		}
		r.raw = add(rawLBA*soakBlock, vm)
	}
	if row.mirror != nil {
		for _, d := range row.mirror {
			if err := ctx.CreateImageOn(d, "/mirror.img", 7, int64(row.rounds*clients*stripe)*soakBlock, true); err != nil {
				return err
			}
		}
		// A leg is fenced after eight errors in a row: a dead device gets
		// there at once, the loud group's transient faults do not.
		mc := MirrorConfig{SuspectThreshold: 2, FailThreshold: 8, RecoverThreshold: 3, RegionBlocks: stripe, ResilverInterval: 20 * time.Microsecond}
		if row.arms&hedge != 0 {
			mc.HedgePercentile, mc.HedgeMinDelay = 50, 20*time.Microsecond
		}
		vm, err := ctx.StartMirroredVM("mirror", "/mirror.img", 7, row.mirror, mc)
		if err != nil {
			return err
		}
		r.mirror = vm
		add(0, vm)
	}
	return nil
}

// probe reads the raw tenant's seeded sectors before anything rewrites them:
// stripe 0 holds latent sectors, which must fail the read; stripe 1 holds
// corrupt ones, which must fail it with ErrIntegrity and never come back as
// data.
func (r *soakRun) probe(ctx *Ctx) error {
	raw := r.raw
	if raw == nil {
		return nil
	}
	p := make([]byte, stripe*soakBlock)
	if r.row.faults&loud != 0 {
		if err := raw.vms[0].ReadAt(ctx, p, raw.base); err == nil {
			return fmt.Errorf("a read across latent sectors succeeded")
		}
	}
	if r.row.faults&corrupt != 0 {
		var err error
		for attempt := 0; attempt < 8 && !errors.Is(err, ErrIntegrity); attempt++ {
			if err = raw.vms[0].ReadAt(ctx, p, raw.base+stripe*soakBlock); err == nil {
				return fmt.Errorf("a read across corrupt sectors returned data")
			}
		}
		if !errors.Is(err, ErrIntegrity) {
			return fmt.Errorf("a read across corrupt sectors: %v, want ErrIntegrity", err)
		}
	}
	return nil
}

// workers starts every VM's clients. Each owns every W-th stripe of its disk
// (W workers share a disk) and, each round, writes one and checks one it
// wrote earlier.
func (r *soakRun) workers(ctx *Ctx) {
	clients := max(r.row.clients, 1)
	for i, tn := range r.tenants {
		w := len(tn.vms) * clients
		for k := 0; k < w; k++ {
			tn, vm, k := tn, tn.vms[k/clients], int64(k)
			r.spawn(ctx, fmt.Sprintf("worker %d.%d", i, k), func(c *Ctx) error {
				for round := int64(0); round < int64(r.row.rounds); round++ {
					if err := tn.write(c, vm, (round*int64(w)+k)*stripe, stripe); err != nil {
						return err
					}
					if err := tn.check(c, vm, (round/2*int64(w)+k)*stripe, stripe); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
}

// spawn runs fn as a task of the run, its error named after it.
func (r *soakRun) spawn(ctx *Ctx, name string, fn func(*Ctx) error) {
	r.tasks = append(r.tasks, ctx.Go(name, func(c *Ctx) error {
		if err := fn(c); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}))
}

// failSlowChurn degrades device 0 — 3x latency plus 300 µs, ramping in over
// 200 µs — for 2 ms and clears it for 1 ms, six times: the gray failure where
// nothing errors and everything is late.
func failSlowChurn(c *Ctx) error {
	for cycle := 0; cycle < 6; cycle++ {
		c.Degrade(0, 3, 300*time.Microsecond, 200*time.Microsecond)
		c.Sleep(2 * time.Millisecond)
		c.ClearDegradations(0)
		c.Sleep(time.Millisecond)
	}
	return nil
}

// fleetChurn kills the mirror's last device mid-run and revives it, waits for
// the resilver, then live-migrates the mirror's first leg to a device it does
// not use.
func (r *soakRun) fleetChurn(c *Ctx) error {
	legs := r.row.mirror
	if r.row.arms&kill != 0 {
		dead := legs[len(legs)-1]
		c.Sleep(time.Millisecond)
		if err := c.KillDevice(dead); err != nil {
			return err
		}
		// A revive brings back a leg the mirror has fenced: wait for that.
		fenced := func(rs ReplicaStatus) bool { return rs.Dev == dead && rs.State == "failed" }
		if err := waitMirror(c, r.mirror, "fence the killed device", func(st []ReplicaStatus) bool { return slices.ContainsFunc(st, fenced) }); err != nil {
			return err
		}
		if err := errors.Join(c.ReviveDevice(dead), settle(c, r.mirror)); err != nil {
			return err
		}
	}
	if r.row.arms&migrate != 0 {
		dst := 0
		for slices.Contains(legs, dst) {
			dst++
		}
		return retry(func() error {
			r.snapshots++ // each attempt's bulk copy reads a snapshot
			_, err := r.mirror.Migrate(c, 0, dst)
			return err
		})
	}
	return nil
}

// settle waits until every leg of a mirrored VM is in sync: serving, with no
// dirty region. A suspect leg counts: it errs but misses nothing, and only
// traffic of its own clears the suspicion.
func settle(c *Ctx, vm *VM) error {
	return waitMirror(c, vm, "resilver", func(st []ReplicaStatus) bool {
		return !slices.ContainsFunc(st, func(rs ReplicaStatus) bool {
			return rs.State == "failed" || rs.State == "rebuilding" || rs.DirtyRegions != 0
		})
	})
}

// waitMirror polls vm's legs for up to a virtual second until done holds.
func waitMirror(c *Ctx, vm *VM, what string, done func([]ReplicaStatus) bool) error {
	for i := 0; i < 1000 && !done(vm.FabricStatus()); i++ {
		c.Sleep(time.Millisecond)
	}
	if !done(vm.FabricStatus()) {
		return fmt.Errorf("the mirror did not %s: %+v", what, vm.FabricStatus())
	}
	return nil
}

// casChurn seals a golden image, then, each round, seals a variant sharing
// half its blocks with it and forks the golden manifest onto a guest that
// reads a stripe it never wrote (a fetch on the read path) and writes one over
// holes (a fetch on the write path); fork and variant are released again, and
// a last fork must still materialize the whole golden image.
func casChurn(c *Ctx) error {
	const blocks = 8 * stripe
	golden := newDisk(100, blocks)
	img := make([]byte, blocks*soakBlock)
	golden.stamp(img, 0)
	if err := seal(c, "golden", img); err != nil {
		return err
	}
	for round := int64(0); round < 8; round++ {
		variant := golden.fork()
		variant.render(img, 0)
		for b := int64(0); b < blocks; b += 2 {
			variant.stamp(img[b*soakBlock:(b+1)*soakBlock], b*soakBlock)
		}
		name := fmt.Sprintf("variant%d", round)
		if err := seal(c, name, img); err != nil {
			return err
		}
		path := fmt.Sprintf("/cfork%d.img", round)
		vm, err := bootFork(c, path)
		if err != nil {
			return err
		}
		ft := &tenant{disk: golden.fork(), vms: []*VM{vm}}
		if err := errors.Join(ft.check(c, vm, round%4*stripe, stripe), ft.write(c, vm, (4+round%4)*stripe, stripe),
			ft.check(c, vm, (4+round%4)*stripe, stripe)); err != nil {
			return err
		}
		vm.Stop(c)
		if err := errors.Join(retry(func() error { return c.ReleaseImage(path) }), retry(func() error { return c.ReleaseSealed(name) })); err != nil {
			return err
		}
	}
	vm, err := bootFork(c, "/final.img")
	if err != nil {
		return err
	}
	if err := (&tenant{disk: golden, vms: []*VM{vm}}).checkAll(c, vm); err != nil {
		return err
	}
	vm.Stop(c)
	return retry(func() error { return c.ReleaseImage("/final.img") })
}

// seal writes img into a host image and seals it into the store as name.
func seal(c *Ctx, name string, img []byte) error {
	path := "/" + name + ".img"
	if err := retry(func() error { return c.CreateImage(path, 7, int64(len(img)), true) }); err != nil {
		return err
	}
	// Each attempt writes the image again: a sector a write latched corrupt
	// fails the seal's reads until it is rewritten.
	return retry(func() error {
		if err := c.WriteHostFile(path, img, 0); err != nil {
			return err
		}
		_, err := c.SealImage(path, name, 7)
		return err
	})
}

// bootFork forks the golden image at path and boots a guest on it.
func bootFork(c *Ctx, path string) (vm *VM, err error) {
	err = errors.Join(retry(func() error { return c.ForkImage("golden", path, 7) }),
		retry(func() error { vm, err = c.StartVM(path, BackendNeSC, path, 7); return err }))
	return vm, err
}

// snapshotChurn snapshots a disk and forks a writable clone of it. Every VM
// of the disk reads one shared block, the writer first, so each sharer caches
// its translation; the block is broken through the writer, and no sharer may
// read it stale. The clone then diverges at stripe 0, and the disk, the
// clone and the snapshot are held to the oracle: no side's write shows on
// another. Both files are deleted again.
func (r *soakRun) snapshotChurn(ctx *Ctx, i int, tn *tenant) error {
	vm, writer, uid := tn.vms[0], tn.vms[len(tn.vms)-1], uint32(100+i)
	snapPath, clonePath := fmt.Sprintf("/snap%d.img", i), fmt.Sprintf("/clone%d.img", i)
	snap := tn.disk.fork()
	if err := vm.Snapshot(ctx, snapPath, uid); err != nil {
		return err
	}
	clone, err := ctx.CloneVM(vm, clonePath, clonePath, uid)
	if err != nil {
		return err
	}
	r.snapshots, r.clones = r.snapshots+2, r.clones+1
	sharers := func(blk, n int64) error {
		for k := len(tn.vms) - 1; k >= 0; k-- {
			if err := tn.check(ctx, tn.vms[k], blk, n); err != nil {
				return err
			}
		}
		return nil
	}
	ft := &tenant{disk: tn.disk.fork(), vms: []*VM{clone}}
	if err := errors.Join(sharers(stripe, 1), tn.write(ctx, writer, stripe, 1), sharers(stripe, 1),
		ft.write(ctx, clone, 0, stripe), ft.check(ctx, clone, 0, 2*stripe), sharers(0, 2*stripe)); err != nil {
		return err
	}
	p := make([]byte, 2*stripe*soakBlock)
	if _, err := ctx.ReadHostFile(snapPath, p, 0); err != nil {
		return err
	}
	if !snap.verify(p, 0) {
		return fmt.Errorf("a write after the snapshot shows in it")
	}
	clone.Stop(ctx)
	return errors.Join(ctx.DeleteSnapshot(clonePath, uid), ctx.DeleteSnapshot(snapPath, uid))
}

func (r *soakRun) latches() int64 {
	st := r.s.Stats()
	return st.LatentOutstanding + st.CorruptOutstanding
}

// sweep is where every row ends: every device back, every mirror leg healthy
// and clean, every byte of every disk through every VM against the oracle;
// then, with every VM stopped, fsck and no shared block left on every device,
// the chunk store's refcounts, no latch left after a drain, what the runner
// did in the counters, and every device's queue leases back to its PF's.
func (r *soakRun) sweep(ctx *Ctx) error {
	devs := r.s.pl.Hyp.Devices()
	for i := range devs {
		if err := ctx.ReviveDevice(i); err != nil {
			return err
		}
	}
	if r.mirror != nil {
		if err := settle(ctx, r.mirror); err != nil {
			return err
		}
	}
	// Every running VF holds its queue pairs from its device's pool.
	running := slices.Clone(r.leases)
	for _, tn := range r.tenants {
		for _, vm := range tn.vms {
			if err := tn.checkAll(ctx, vm); err != nil {
				return fmt.Errorf("final readback: %w", err)
			}
			legs := []ReplicaStatus{{Dev: 0}} // a direct VM's one VF, on device 0
			if vm == r.mirror {
				legs = vm.FabricStatus()
			}
			for _, rs := range legs {
				running[rs.Dev] += max(r.row.queues, 1)
			}
		}
	}
	var errs []error
	for i, d := range devs {
		if n := d.Ctl.LeasedQueues(); n != running[i] {
			errs = append(errs, fmt.Errorf("device %d: %d queues leased, the PF and the running VFs hold %d", i, n, running[i]))
		}
	}
	for _, tn := range r.tenants {
		for _, vm := range tn.vms {
			errs = append(errs, treesMapFiles(ctx, vm.vm))
		}
	}
	for _, tn := range r.tenants {
		for _, vm := range tn.vms {
			vm.Stop(ctx)
		}
	}
	for i, d := range devs {
		if err := d.HostFS.Check(ctx.proc); err != nil {
			errs = append(errs, fmt.Errorf("device %d fsck: %w", i, err))
		}
		if n := d.HostFS.SharedBlocks(); n != 0 {
			errs = append(errs, fmt.Errorf("device %d: %d blocks still shared", i, n))
		}
		if n := d.Ctl.LeasedQueues(); n != r.leases[i] {
			errs = append(errs, fmt.Errorf("device %d: %d queues leased with every VM stopped, the PF holds %d", i, n, r.leases[i]))
		}
	}
	if err := r.s.pl.CAS.Store.Check(); err != nil {
		errs = append(errs, err)
	}
	st := r.s.Stats()
	if st.VFResets != r.resets || st.Snapshots != r.snapshots || st.Clones != r.clones {
		errs = append(errs, fmt.Errorf("VFResets/Snapshots/Clones = %d/%d/%d, the run did %d/%d/%d",
			st.VFResets, st.Snapshots, st.Clones, r.resets, r.snapshots, r.clones))
	}
	return errors.Join(errs...)
}

// treesMapFiles reports each VF of vm whose extent tree does not map what its
// backing file's inode maps. A miss edits only the tree's path to the missed
// range, so a change the tree missed stays missed until someone rebuilds it.
func treesMapFiles(ctx *Ctx, vm *hypervisor.VM) error {
	if vm.Cfg.RawDevice {
		return nil
	}
	var errs []error
	for _, leg := range vm.Legs {
		f, err := leg.Dev.HostFS.Open(ctx.proc, vm.Cfg.DiskPath, vm.Cfg.UID, extfs.PermRead)
		if err != nil {
			return err
		}
		tree := leg.Dev.VFTree(leg.VFIdx)
		got, err := extent.CollectRuns(vm.H.Mem, tree.Root(), tree.Fanout())
		if err != nil || !slices.Equal(got, f.Extents()) {
			errs = append(errs, fmt.Errorf("%s: device %d VF %d's tree maps %d runs (%v), %s %d",
				vm.Name, leg.Dev.Idx, leg.VFIdx, len(got), err, vm.Cfg.DiskPath, len(f.Extents())))
		}
	}
	return errors.Join(errs...)
}

// raceEnabled is set when the race detector is on (race_test.go). The race
// runtime keeps ≈ 25 KB of every simulated process that has finished, so a race
// build runs each row once: a replay runs the same code again.
var raceEnabled bool

func TestSoak(t *testing.T) {
	for _, row := range soakRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			a := runSoak(t, row, row.faults.plan(row.seed))
			for _, name := range strings.Fields(row.nonzero) {
				f := reflect.ValueOf(a.stats).FieldByName(name)
				if !f.IsValid() {
					f = reflect.ValueOf(a.fabric).FieldByName(name)
				}
				if !f.IsValid() {
					t.Fatalf("no counter %s", name)
				}
				if f.IsZero() {
					t.Errorf("%s = 0: what the row arms never ran", name)
				}
			}
			if raceEnabled {
				return
			}
			if b := runSoak(t, row, row.faults.plan(row.seed)); b != a {
				t.Errorf("same-seed runs diverge:\n--- A\n%+v\n--- B\n%+v", a, b)
			}
			if c := runSoak(t, row, row.faults.plan(row.seed+1)); c.summary == a.summary {
				t.Error("a second seed drew the same fault sequence")
			}
		})
	}
}

// soakSeeds and soakSeedRows are TestSoakSeeds' range: seed offsets
// "from:to" (to excluded) added to each row's own seed, and the rows to sweep
// (all when empty). make soak-seeds sets them.
var (
	soakSeeds    = flag.String("soak-seeds", "", "sweep each soak row over the seed offsets from:to (TestSoakSeeds)")
	soakSeedRows = flag.String("soak-rows", "", "the soak rows -soak-seeds sweeps, comma-separated (default: all)")
)

// TestSoakSeeds measures rather than checks: it runs each soak row once per
// seed of a range and logs the row's pass rate and how its failures fall into
// classes (each error's first line up to any "[" dump, numbers blanked). It fails only on
// a malformed range; without -soak-seeds it is skipped.
func TestSoakSeeds(t *testing.T) {
	if *soakSeeds == "" {
		t.Skip("sweeps seeds only under -soak-seeds (make soak-seeds)")
	}
	var from, to uint64
	if _, err := fmt.Sscanf(*soakSeeds, "%v:%v", &from, &to); err != nil || to <= from {
		t.Fatalf("-soak-seeds %q: want from:to with from < to", *soakSeeds)
	}
	numbers := regexp.MustCompile(`0x[0-9a-f]+|[0-9]+`)
	for _, row := range soakRows {
		if *soakSeedRows != "" && !slices.Contains(strings.Split(*soakSeedRows, ","), row.name) {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			classes := map[string][]uint64{} // the seeds that failed, by class
			failed := 0
			for off := from; off < to; off++ {
				if _, err := soak(row, row.faults.plan(row.seed+off)); err != nil {
					class, _, _ := strings.Cut(err.Error(), "\n")
					class, _, _ = strings.Cut(class, "[") // a status dump, not the class
					class = numbers.ReplaceAllString(class, "#")
					classes[class] = append(classes[class], row.seed+off)
					failed++
				}
			}
			n := int(to - from)
			t.Logf("row %s: seeds %#x+%#x..%#x passed %d/%d", row.name, row.seed, from, to-1, n-failed, n)
			var names []string
			for class := range classes {
				names = append(names, class)
			}
			slices.Sort(names)
			for _, class := range names {
				t.Logf("row %s: %3d × %s (seeds %#x)", row.name, len(classes[class]), class, classes[class])
			}
		})
	}
}
