package main

import (
	"fmt"
	"math/rand"
	"time"

	"nesc"
)

// op is one guest request: a read or write of size bytes at byte offset off
// of the client's virtual disk. Both are whole multiples of blockSize.
type op struct {
	off   int64
	size  int32
	write bool
}

// client is one closed-loop simulated guest client: it issues its ops one at
// a time against one VM and waits for each completion before the next.
type client struct {
	vm int // index into world.vms / world.disks
	// group names the boot unit the client belongs to. Groups run
	// concurrently; a group's boot hook (fleet-fork-storm's fork + VM start)
	// runs inside the measured phase before its clients issue anything.
	group int
	// ref marks clients whose first ops (the plan's refFrac of them) the
	// virtio reference pass replays.
	ref  bool
	warm []op
	ops  []op

	lat []int64 // virtual ns per measured op
	// prefixAt and refAt are the virtual instants at which the last op of
	// its reference prefix completed, in the measured phase and in the
	// virtio replay.
	prefixAt, refAt time.Duration
}

// plan is everything a workload derives from the seed before timing starts:
// the op sequences and the image geometry they need.
type plan struct {
	clients []*client
	// Image geometry in blocks; meaning is per workload.
	blocks, frag, sparse, cow int64
	vms                       int // tenants-qd32: VMs started
}

// prefixLen is how many of c's measured ops the virtio reference replays.
func (w *workload) prefixLen(c *client) int {
	return max(int(float64(len(c.ops))*w.refFrac), 1)
}

// world is one built platform side: the VMs the clients drive and the oracle
// of each VM's disk.
type world struct {
	vms   []*nesc.VM
	disks []*disk
}

const warmFrac = 0.01 // untimed warm-up, as a share of each client's ops

// workload is one benchmark scenario. Names are fixed: later issues refer to
// them.
type workload struct {
	name string
	why  string
	// opsPerSecond fixes the measured op count: ops = opsPerSecond x
	// --seconds. The counts are constants, never time-bounded loops, chosen
	// so --seconds 10 measures for about ten seconds on the 2-core box the
	// baseline was taken on.
	opsPerSecond int
	smokeOps     int
	// refFrac is the share of each ref client's ops the virtio reference
	// replays: 5 % where ops are alike and many; more where latencies are
	// heavy-tailed and a short prefix would make the ratio a matter of luck,
	// up to all of them on translate-miss, whose ops are few and cheap to
	// replay.
	refFrac float64
	config  func() nesc.Config
	plan    func(rng *rand.Rand, n int) *plan
	// build creates the images and VMs of one side: the NeSC side in set-up,
	// the virtio twin (tag ".twin") for the reference pass.
	build func(r *pass, ctx *nesc.Ctx, pl *plan, be nesc.Backend, tag string) (*world, error)
	// boot, when set, runs inside the measured phase at the start of each
	// client group other than group 0.
	boot func(r *pass, ctx *nesc.Ctx, w *world, group int) error
	// check asserts the workload still stresses the layers it was chosen
	// for (the discriminators of the issue's acceptance list).
	check func(c counts) error
}

// counts are the measured-phase deltas check sees.
type counts struct {
	ops                        int
	btlbHitRate                float64
	missServices               int64
	fabricWrites, casFirstHits int64
}

// mixedOps returns n ops over [0, blocks) whose mix is exact, not drawn: the
// sizes take equal shares and writesInTen of every ten ops of a size are
// writes. Only the order and the offsets come from the seed, so two seeds
// differ in what they touch and when, not in how much work they ask for.
func mixedOps(rng *rand.Rand, n int, blocks int64, sizes []int32, writesInTen int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i].size = sizes[i%len(sizes)]
		ops[i].write = i/len(sizes)%10 < writesInTen
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		span := blocks - int64(ops[i].size)/blockSize + 1
		ops[i].off = rng.Int63n(span) * blockSize
	}
	return ops
}

// split carves n generated ops into a warm-up head and the measured rest.
func (c *client) split(all []op, measured int) {
	c.warm, c.ops = all[:len(all)-measured], all[len(all)-measured:]
}

func warmCount(n int) int { return int(float64(n)*warmFrac + 0.5) }

// image creates a preallocated contiguous image, starts a VM on it and
// stamps every block with version 1 through that VM, so reads verify real
// content from the first op on.
func filledVM(r *pass, ctx *nesc.Ctx, be nesc.Backend, path string, uid uint32, d *disk) (*nesc.VM, error) {
	if err := r.step("create_image", func() error {
		return ctx.CreateImage(path, uid, int64(len(d.ver))*blockSize, false)
	}); err != nil {
		return nil, err
	}
	var vm *nesc.VM
	if err := r.step("start_vm", func() (err error) {
		vm, err = ctx.StartVM(path, be, path, uid)
		return err
	}); err != nil {
		return nil, err
	}
	return vm, r.step("prefill", func() error { return prefill(ctx, vm, d) })
}

func prefill(ctx *nesc.Ctx, vm *nesc.VM, d *disk) error {
	const chunk = 256 << 10
	buf := make([]byte, chunk)
	total := int64(len(d.ver)) * blockSize
	for off := int64(0); off < total; off += chunk {
		p := buf[:min(chunk, total-off)]
		d.stamp(p, off)
		if err := vm.WriteAt(ctx, p, off); err != nil {
			return err
		}
	}
	return nil
}

// --- raw-small-qd1 and raw-stream-large: one VF, one contiguous image ---

const rawBlocks = 16 << 10 // 16 MB

func rawBuild(r *pass, ctx *nesc.Ctx, pl *plan, be nesc.Backend, tag string) (*world, error) {
	d := newDisk(1, pl.blocks)
	vm, err := filledVM(r, ctx, be, "/raw"+tag+".img", 1, d)
	if err != nil {
		return nil, err
	}
	return &world{vms: []*nesc.VM{vm}, disks: []*disk{d}}, nil
}

func rawCheck(c counts) error {
	if c.btlbHitRate < 0.99 {
		return fmt.Errorf("BTLB hit rate %.4f < 0.99 on a contiguous image", c.btlbHitRate)
	}
	if c.missServices != 0 {
		return fmt.Errorf("%d miss services on a preallocated image", c.missServices)
	}
	return noFleet(c)
}

func noFleet(c counts) error {
	if c.fabricWrites != 0 || c.casFirstHits != 0 {
		return fmt.Errorf("fabric/cas active (%d mirrored writes, %d fetch misses) outside fleet-fork-storm",
			c.fabricWrites, c.casFirstHits)
	}
	return nil
}

func rawSmallPlan(rng *rand.Rand, n int) *plan {
	c := &client{ref: true}
	c.split(mixedOps(rng, n+warmCount(n), rawBlocks, []int32{1 << 10, 4 << 10}, 3), n)
	return &plan{clients: []*client{c}, blocks: rawBlocks}
}

// rawStreamPlan walks the image sequentially in bursts of 32 KB requests,
// each burst followed by one 256 KB request; the first half of the ops read,
// the second half write. Burst lengths run through 4 to 12 in an order
// shuffled afresh for every nine bursts, so the seed moves where the large
// requests fall but hardly how many there are.
func rawStreamPlan(rng *rand.Rand, n int) *plan {
	c := &client{ref: true}
	total := n + warmCount(n)
	all := make([]op, 0, total)
	pos := rng.Int63n(rawBlocks/32) * (32 << 10)
	var bursts []int
	burst := 0
	for len(all) < total {
		size := int32(32 << 10)
		if burst == 0 {
			if len(bursts) == 0 {
				bursts = rng.Perm(9)
			}
			burst, bursts = 4+bursts[0], bursts[1:]
			size = 256 << 10
		} else {
			burst--
		}
		if pos+int64(size) > rawBlocks*blockSize {
			pos = 0
		}
		all = append(all, op{off: pos, size: size})
		pos += int64(size)
	}
	c.split(all, n)
	for i := n / 2; i < n; i++ {
		c.ops[i].write = true
	}
	return &plan{clients: []*client{c}, blocks: rawBlocks}
}

// --- translate-miss: fragmented + sparse + snapshotted regions ---

const (
	fragBlocks = 512 // one-block extents: working set >> the 8-entry BTLB
	slotBlocks = 4   // every translate-miss request is 4 KB
)

// The four kinds of translate-miss op.
const (
	kindFrag  = iota // read over the fragmented region: four extents, four walks
	kindOther        // read over the other two regions: holes and written-back data
	kindFirst        // first-touch write into a sparse slot: lazy-allocation miss
	kindOver         // first overwrite of a snapshot-shared slot: CoW break
)

// translateKinds returns n op kinds: of every twenty, five first-touch
// writes, five overwrites, two reads of the other regions and eight reads of
// the fragmented region, in an order shuffled afresh for each twenty. The mix
// is exact, not drawn, and exact all along the sequence: every miss grows the
// extent tree, and the cost of the next one with it, so a seed that merely
// put its misses earlier would allocate a few per cent more.
func translateKinds(rng *rand.Rand, n int) []int {
	block := []int{
		kindFirst, kindFirst, kindFirst, kindFirst, kindFirst,
		kindOver, kindOver, kindOver, kindOver, kindOver,
		kindOther, kindOther,
		kindFrag, kindFrag, kindFrag, kindFrag, kindFrag, kindFrag, kindFrag, kindFrag,
	}
	kinds := make([]int, 0, n+len(block))
	for len(kinds) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		kinds = append(kinds, block...)
	}
	return kinds[:n]
}

// translatePlan lays the image out as [fragmented | sparse | snapshotted]
// and issues 4 KB ops of the four kinds above, warm-up and measured part each
// with the exact mix. Each write slot is used once, and the two write regions
// are sized from the op count, so misses never run out before the ops do.
func translatePlan(rng *rand.Rand, n int) *plan {
	kinds := append(translateKinds(rng, warmCount(n)), translateKinds(rng, n)...)
	var nFirst, nOver int64
	for _, k := range kinds {
		switch k {
		case kindFirst:
			nFirst++
		case kindOver:
			nOver++
		}
	}
	// Fewer one-block extents only when there are fewer ops than extents
	// (the smoke run).
	pl := &plan{frag: min(fragBlocks, max(int64(n), 64)), sparse: max(nFirst, 1) * slotBlocks, cow: max(nOver, 1) * slotBlocks}
	pl.blocks = pl.frag + pl.sparse + pl.cow
	first, over := rng.Perm(int(nFirst)), rng.Perm(int(nOver))
	slots := (pl.sparse + pl.cow) / slotBlocks
	all := make([]op, len(kinds))
	for i, k := range kinds {
		o := op{size: slotBlocks * blockSize}
		switch k {
		case kindFrag:
			o.off = rng.Int63n(pl.frag-slotBlocks+1) * blockSize
		case kindOther:
			o.off = (pl.frag + rng.Int63n(slots)*slotBlocks) * blockSize
		case kindFirst:
			o.off, o.write = (pl.frag+int64(first[0])*slotBlocks)*blockSize, true
			first = first[1:]
		case kindOver:
			o.off, o.write = (pl.frag+pl.sparse+int64(over[0])*slotBlocks)*blockSize, true
			over = over[1:]
		}
		all[i] = o
	}
	c := &client{ref: true}
	c.split(all, n)
	pl.clients = []*client{c}
	return pl
}

// translateBuild interleaves single-block host writes to the image and to a
// pad file so the image's first region maps every block to its own extent,
// leaves the second region a hole, preallocates the third, and snapshots the
// whole file so every mapped extent is shared and write-protected.
func translateBuild(r *pass, ctx *nesc.Ctx, pl *plan, be nesc.Backend, tag string) (*world, error) {
	path, pad, snap := "/tm"+tag+".img", "/tm"+tag+".pad", "/tm"+tag+".snap"
	d := newDisk(2, pl.blocks)
	blk := make([]byte, blockSize)
	if err := r.step("fragment_image", func() error {
		for b := int64(0); b < pl.frag; b++ {
			d.stamp(blk, b*blockSize)
			if err := ctx.WriteHostFile(path, blk, b*blockSize); err != nil {
				return err
			}
			if err := ctx.WriteHostFile(pad, blk, b*blockSize); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := r.step("create_image", func() error {
		// Writing the tail extends the file over the sparse region, which
		// stays a hole.
		zeros := make([]byte, 256<<10)
		end := pl.blocks * blockSize
		for off := (pl.frag + pl.sparse) * blockSize; off < end; off += int64(len(zeros)) {
			if err := ctx.WriteHostFile(path, zeros[:min(int64(len(zeros)), end-off)], off); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var vm *nesc.VM
	if be == nesc.BackendNeSC {
		if err := r.step("start_vm", func() (err error) {
			vm, err = ctx.StartVM(path, be, path, 0)
			return err
		}); err != nil {
			return nil, err
		}
		if err := r.step("snapshot", func() error { return vm.Snapshot(ctx, snap, 0) }); err != nil {
			return nil, err
		}
	} else {
		// A software backend has no VF to snapshot through: share the file
		// first, then attach.
		if err := ctx.SnapshotImage(path, snap, 0); err != nil {
			return nil, err
		}
		var err error
		if vm, err = ctx.StartVM(path, be, path, 0); err != nil {
			return nil, err
		}
	}
	return &world{vms: []*nesc.VM{vm}, disks: []*disk{d}}, nil
}

func translateCheck(c counts) error {
	if c.btlbHitRate >= 0.5 {
		return fmt.Errorf("BTLB hit rate %.4f >= 0.5: working set no longer exceeds the BTLB", c.btlbHitRate)
	}
	if per := float64(c.missServices) / float64(c.ops); per < 0.2 {
		return fmt.Errorf("%.3f miss services per op < 0.2", per)
	}
	return noFleet(c)
}

// --- tenants-qd32: 240 VFs x 2 queues, one client each ---

// The issue asked for 8 VFs with 32 clients each. VM.ReadAt/WriteAt bounce
// every request through one scratch buffer per guest kernel, so two requests
// in flight on one VM read each other's data (the oracle caught it). The
// public API therefore carries one client per VM, and the requests in flight
// come from as many VFs as the host filesystem's 512 inodes allow once every
// image has its virtio twin.
const (
	tenantVMs    = 240
	tenantBlocks = 128 // per-VM image, 128 KB
)

func tenantsConfig() nesc.Config {
	cfg := nesc.DefaultConfig()
	cfg.NumVFs = tenantVMs
	cfg.QueuesPerVF = 2
	return cfg
}

// tenantsPlan starts tenantVMs VMs, fewer only when there are not four ops
// for each (the smoke run).
func tenantsPlan(rng *rand.Rand, n int) *plan {
	vms := min(tenantVMs, max(n/4, 1))
	per := max(n/vms, 1)
	pl := &plan{blocks: tenantBlocks, vms: vms}
	for vm := 0; vm < vms; vm++ {
		c := &client{vm: vm, ref: true}
		c.split(mixedOps(rng, per+warmCount(per), tenantBlocks, []int32{4 << 10}, 3), per)
		pl.clients = append(pl.clients, c)
	}
	return pl
}

func tenantsBuild(r *pass, ctx *nesc.Ctx, pl *plan, be nesc.Backend, tag string) (*world, error) {
	w := &world{}
	for i := 0; i < pl.vms; i++ {
		d := newDisk(uint64(10+i), pl.blocks)
		vm, err := filledVM(r, ctx, be, fmt.Sprintf("/t%d%s.img", i, tag), uint32(100+i), d)
		if err != nil {
			return nil, err
		}
		w.vms, w.disks = append(w.vms, vm), append(w.disks, d)
	}
	return w, nil
}

func tenantsCheck(c counts) error {
	if c.missServices != 0 {
		return fmt.Errorf("%d miss services on preallocated images", c.missServices)
	}
	return noFleet(c)
}

// --- fleet-fork-storm: mirrored VM + golden image forked to 3 devices ---

const (
	fleetDevices = 4
	forksPerDev  = 4 // one VM and one client per fork: see tenants-qd32
	mirrorBlocks = 4 << 10
	goldenDup    = 2 // adjacent golden blocks repeat, so sealing dedups 2x
	goldenName   = "golden"
	goldenPath   = "/golden.img"
)

func fleetConfig() nesc.Config {
	cfg := nesc.DefaultConfig()
	cfg.Devices = fleetDevices
	cfg.CAS = true
	return cfg
}

func forkVM(dev, k int) int { return 1 + (dev-1)*forksPerDev + k }

// fleetPlan splits the ops evenly between the foreground client on the
// mirrored VM (4 KB, half reads half writes) and twelve fork clients, four
// per device, each on its own fork of the golden image. Every fork client
// reads the whole golden image once in one seeded order they all share, as
// VMs booting from one image do (cold: each read is a first touch that
// materializes four chunks, and on a device the three followers can hit the
// chunk cache the leader filled), then reads it again in that order (warm).
func fleetPlan(rng *rand.Rand, n int) *plan {
	nFg := max(n/2, 1)
	forks := (fleetDevices - 1) * forksPerDev
	slots := max((n-nFg)/forks/2, 1)
	pl := &plan{blocks: mirrorBlocks, cow: int64(slots) * slotBlocks}

	fg := &client{ref: true}
	fg.split(mixedOps(rng, nFg+warmCount(nFg), mirrorBlocks, []int32{4 << 10}, 5), nFg)
	pl.clients = append(pl.clients, fg)

	boot := make([]op, 0, 2*slots)
	for _, s := range rng.Perm(slots) {
		boot = append(boot, op{off: int64(s) * slotBlocks * blockSize, size: slotBlocks * blockSize})
	}
	boot = append(boot, boot...)
	for dev := 1; dev < fleetDevices; dev++ {
		for k := 0; k < forksPerDev; k++ {
			pl.clients = append(pl.clients, &client{vm: forkVM(dev, k), group: dev, ops: boot})
		}
	}
	return pl
}

// fleetBuild prepares, on the NeSC side, the golden image (written through a
// throwaway VM, then sealed into the content-addressed store) and the K=2
// mirrored foreground VM; pl.cow carries the golden image's size. The virtio
// twin is the foreground disk alone on the primary device.
func fleetBuild(r *pass, ctx *nesc.Ctx, pl *plan, be nesc.Backend, tag string) (*world, error) {
	nVMs := forkVM(fleetDevices, 0)
	w := &world{vms: make([]*nesc.VM, nVMs), disks: make([]*disk, nVMs)}
	w.disks[0] = newDisk(3, pl.blocks)
	if be != nesc.BackendNeSC {
		vm, err := filledVM(r, ctx, be, "/mirror"+tag+".img", 7, w.disks[0])
		w.vms[0] = vm
		return w, err
	}
	golden := newDisk(4, pl.cow)
	golden.dup = goldenDup
	gvm, err := filledVM(r, ctx, be, goldenPath, 9, golden)
	if err != nil {
		return nil, err
	}
	gvm.Stop(ctx)
	if err := r.step("seal", func() error {
		_, err := ctx.SealImage(goldenPath, goldenName, 9)
		return err
	}); err != nil {
		return nil, err
	}
	for i := 1; i < nVMs; i++ {
		w.disks[i] = golden // forks are only read: one shared oracle
	}
	if err := r.step("create_image", func() error {
		for _, dev := range []int{0, 1} {
			if err := ctx.CreateImageOn(dev, "/mirror.img", 7, pl.blocks*blockSize, false); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := r.step("start_vm", func() (err error) {
		w.vms[0], err = ctx.StartMirroredVM("mirror", "/mirror.img", 7, []int{0, 1}, nesc.MirrorConfig{})
		return err
	}); err != nil {
		return nil, err
	}
	return w, r.step("prefill", func() error { return prefill(ctx, w.vms[0], w.disks[0]) })
}

// fleetBoot forks the sealed golden image onto device dev once per fork
// client and boots a VM on each fork, all inside the measured phase.
func fleetBoot(r *pass, ctx *nesc.Ctx, w *world, dev int) error {
	for k := 0; k < forksPerDev; k++ {
		path := fmt.Sprintf("/fork%d.img", k)
		if err := r.step("fork", func() error { return ctx.ForkImageOn(dev, goldenName, path, 9) }); err != nil {
			return err
		}
		if err := r.step("start_fork_vm", func() (err error) {
			w.vms[forkVM(dev, k)], err = ctx.StartVMOn(dev, fmt.Sprintf("fork%d.%d", dev, k), nesc.BackendNeSC, path, 9)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func fleetCheck(c counts) error {
	if c.fabricWrites == 0 || c.casFirstHits == 0 {
		return fmt.Errorf("fleet layers idle: %d mirrored writes, %d fetch misses", c.fabricWrites, c.casFirstHits)
	}
	return nil
}

var workloads = []*workload{
	{
		name:         "raw-small-qd1",
		why:          "1 VF, contiguous image, 1 client qd1, random 1/4 KB 70/30: fixed per-request cost (sim hand-offs, ring, guest driver, core fetch/mux/completion) dominates; Fig. 9's regime",
		opsPerSecond: 35000, smokeOps: 400, refFrac: 0.05,
		config: nesc.DefaultConfig, plan: rawSmallPlan, build: rawBuild, check: rawCheck,
	},
	{
		name:         "raw-stream-large",
		why:          "same VF and image, sequential 32/256 KB, half reads then half writes: the same layers paid per byte (DTU chunking, medium, DMA, per-chunk allocation); Fig. 10's regime",
		opsPerSecond: 1850, smokeOps: 100, refFrac: 0.25,
		config: nesc.DefaultConfig, plan: rawStreamPlan, build: rawBuild, check: rawCheck,
	},
	{
		name:         "translate-miss",
		why:          "1 VF on 512 one-block extents (>> 8-entry BTLB) + sparse + snapshotted regions: walks, lazy-alloc misses, CoW breaks load walker, extent, hostmem, hypervisor, host extfs",
		opsPerSecond: 270, smokeOps: 200, refFrac: 1,
		config: nesc.DefaultConfig, plan: translatePlan, build: translateBuild, check: translateCheck,
	},
	{
		name:         "tenants-qd32",
		why:          "240 VFs x 2 queues, one client each (240 in flight), random 4 KB 70/30: mux/DRR, queue leases, completion/MSI path, many parked procs; batching must show here, not at qd1",
		opsPerSecond: 21000, smokeOps: 64, refFrac: 0.2,
		config: tenantsConfig, plan: tenantsPlan, build: tenantsBuild, check: tenantsCheck,
	},
	{
		name:         "fleet-fork-storm",
		why:          "4 devices + CAS: K=2 mirrored VM does 4 KB 50/50 while a sealed golden image is forked to 3 devices, booted cold, re-read warm: fabric mirror, cas store/cache/remote",
		opsPerSecond: 2400, smokeOps: 480, refFrac: 0.25,
		config: fleetConfig, plan: fleetPlan, build: fleetBuild, boot: fleetBoot, check: fleetCheck,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
