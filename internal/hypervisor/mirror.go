package hypervisor

import (
	"fmt"

	"nesc/internal/extfs"
	"nesc/internal/fabric"
	"nesc/internal/guest"
	"nesc/internal/sim"
)

// Mirrored VMs: one guest kernel driving a fabric mirror client over VFs on
// several fleet devices. Each leg is an ordinary file-backed VF on its own
// device (with its own copy of the disk image); the fabric client fans
// writes out to all of them and fails over reads. The device models are
// untouched — mirroring is purely a host-side construction, like md over
// two PCIe SSDs.

// MirrorLeg is one device-backed leg of a mirrored VM.
type MirrorLeg struct {
	Dev   *Device
	VFIdx int
	Drv   *guest.NescDriver
}

// newVFDriver builds the guest ring driver for VF idx of dev (the shared
// half of NewVM's BackendDirect path and mirrored-leg construction).
func (h *Hypervisor) newVFDriver(p *sim.Proc, dev *Device, idx int, cfg VMConfig) (*guest.NescDriver, error) {
	queues := cfg.VFQueues
	if queues == 0 {
		queues = dev.Ctl.P.QueuesPerVF
	}
	return guest.NewNescDriver(p, h.Eng, guest.NescDriverConfig{
		Fab:             h.Fab,
		Mem:             h.Mem,
		PageBus:         dev.VFPageBus(idx),
		RingEntries:     cfg.VFRingEntries,
		SubmitTime:      h.P.DriverSubmitTime,
		UseTrampoline:   !h.P.UseIOMMU || cfg.ForceTrampoline,
		MemcpyBandwidth: cfg.Guest.MemcpyBandwidth,
		BlockSize:       dev.Ctl.P.BlockSize,
		Timeout:         h.P.VFRequestTimeout,
		RetryMax:        h.P.VFRetryMax,
		Deadline:        h.P.VFDeadline,
		Queues:          queues,
		Policy:          cfg.VFQueuePolicy,
		DisablePI:       h.P.DisablePI,
		// Function index (0 = PF, VF idx + 1): the row key the device
		// pipeline attributes this tenant's requests to.
		Attrib:   h.tel.Attrib,
		AttribVF: idx + 1,
	})
}

// wireLeg routes a VF driver's completions and DMA grants for vm.
func (h *Hypervisor) wireLeg(dev *Device, idx int, drv *guest.NescDriver, vm *VM) {
	fnID := dev.Ctl.VF(idx).ID()
	h.route(fnID, drv.MQ())
	h.vmOf[fnID] = vm
	if h.P.UseIOMMU {
		h.Fab.IOMMU().Grant(fnID, 0, h.Mem.Size())
	}
}

// unwireLeg reverses wireLeg and destroys the leg's VF.
func (h *Hypervisor) unwireLeg(p *sim.Proc, dev *Device, idx int) {
	fnID := dev.Ctl.VF(idx).ID()
	delete(h.qps, fnID)
	delete(h.vmOf, fnID)
	if h.P.UseIOMMU {
		h.Fab.IOMMU().RevokeAll(fnID)
	}
	dev.DestroyVF(p, idx)
}

// NewMirroredVM builds a direct-assigned guest whose virtual disk is
// synchronously mirrored across one VF per listed fleet device. The disk
// image at cfg.DiskPath must already exist on every listed device's host
// filesystem with identical size. The guest sees a single block device; K-1
// device losses are survivable.
func (h *Hypervisor) NewMirroredVM(p *sim.Proc, name string, cfg VMConfig, devices []int, fcfg fabric.Config) (*VM, error) {
	if cfg.Backend != BackendDirect {
		return nil, fmt.Errorf("hypervisor: mirrored VMs require BackendDirect")
	}
	if cfg.RawDevice {
		return nil, fmt.Errorf("hypervisor: mirrored VMs require a file-backed disk")
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("hypervisor: mirrored VM needs at least one device")
	}
	if cfg.Guest == (guest.Params{}) {
		cfg.Guest = guest.DefaultParams()
	}
	vm := &VM{Name: name, H: h, Kind: BackendDirect, VFIdx: -1, DiskPath: cfg.DiskPath, UID: cfg.UID, cfg: cfg}
	reps := make([]*fabric.Replica, 0, len(devices))
	for _, di := range devices {
		if di < 0 || di >= len(h.devs) {
			return nil, fmt.Errorf("hypervisor: no device %d", di)
		}
		dev := h.devs[di]
		idx, err := dev.CreateVF(p, cfg.DiskPath, cfg.UID)
		if err != nil {
			return nil, fmt.Errorf("hypervisor: mirror leg on device %d: %w", di, err)
		}
		if cfg.IOWeight > 0 {
			dev.SetVFWeight(p, idx, cfg.IOWeight)
		}
		drv, err := h.newVFDriver(p, dev, idx, cfg)
		if err != nil {
			return nil, err
		}
		h.wireLeg(dev, idx, drv, vm)
		vm.Legs = append(vm.Legs, MirrorLeg{Dev: dev, VFIdx: idx, Drv: drv})
		reps = append(reps, fabric.NewReplica(di, drv))
	}
	// Fabric-level events and attribution report against the tenant's
	// first-leg function index (VF idx + 1) — the stable identity of the
	// mirrored disk, matching the device pipeline's row key.
	client, err := fabric.NewClient(h.Eng, h.Mem, fcfg, reps, h.tel, vm.Legs[0].VFIdx+1)
	if err != nil {
		return nil, err
	}
	vm.Client = client
	vm.Kernel = guest.NewKernel(h.Eng, h.Mem, cfg.Guest, client)
	return vm, nil
}

// ReviveDevice tells every mirrored VM's client that a fenced device is
// back (Failed → Rebuilding, resilver starts). Pair with the fault
// injector's device revive.
func (h *Hypervisor) ReviveDevice(dev int) {
	for _, vm := range h.vmOf {
		if vm.Client != nil {
			vm.Client.Revive(dev)
		}
	}
}

// FabricStats aggregates mirror-client counters across every mirrored VM.
type FabricStats struct {
	Clients          int
	MirroredWrites   int64
	DegradedWrites   int64
	WriteFailures    int64
	ReadFallbacks    int64
	ReadRetries      int64
	Suspects         int64
	Failovers        int64
	Recoveries       int64
	Revives          int64
	ResilverRegions  int64
	ResilverBlocks   int64
	ResilverRestores int64
	// Gray-failure mitigation counters (hedged reads / fail-slow quarantine).
	HedgedReads int64
	HedgeWins   int64
	Quarantines int64
	Rejoins     int64
	ProbeReads  int64
	// LastFailoverLatency is the largest fence latency any client observed.
	LastFailoverLatency sim.Time
}

// FabricStatsNow sums the counters of every distinct mirror client.
func (h *Hypervisor) FabricStatsNow() FabricStats {
	var fs FabricStats
	seen := make(map[*fabric.Client]bool)
	for _, vm := range h.vmOf {
		c := vm.Client
		if c == nil || seen[c] {
			continue
		}
		seen[c] = true
		fs.Clients++
		fs.MirroredWrites += c.MirroredWrites
		fs.DegradedWrites += c.DegradedWrites
		fs.WriteFailures += c.WriteFailures
		fs.ReadFallbacks += c.ReadFallbacks
		fs.ReadRetries += c.ReadRetries
		fs.Suspects += c.Suspects
		fs.Failovers += c.Failovers
		fs.Recoveries += c.Recoveries
		fs.Revives += c.Revives
		fs.ResilverRegions += c.ResilverRegions
		fs.ResilverBlocks += c.ResilverBlocks
		fs.ResilverRestores += c.ResilverRestores
		fs.HedgedReads += c.HedgedReads
		fs.HedgeWins += c.HedgeWins
		fs.Quarantines += c.Quarantines
		fs.Rejoins += c.Rejoins
		fs.ProbeReads += c.ProbeReads
		if c.LastFailoverLatency > fs.LastFailoverLatency {
			fs.LastFailoverLatency = c.LastFailoverLatency
		}
	}
	return fs
}

// MigrationReport summarizes one live VF migration.
type MigrationReport struct {
	// BulkBlocks is the frozen-snapshot bulk copy's size.
	BulkBlocks int64
	// Passes / PassBlocks count the iterative pre-copy rounds over regions
	// dirtied while the guest kept writing.
	Passes     int
	PassBlocks int64
	// PauseBlocks is the final stop-and-copy pass's size and Pause the
	// guest-visible submission gap it cost.
	PauseBlocks int64
	Pause       sim.Time
	// Total is end-to-end migration time.
	Total sim.Time
}

// migRegionBlocks is the migration dirty log's granularity.
const migRegionBlocks = 64

// migMaxPasses bounds the iterative pre-copy: after this many rounds the
// migration stops-and-copies whatever is left, bounding the pause instead
// of chasing a write-heavy guest forever.
const migMaxPasses = 6

// migStopCopyRegions is the convergence threshold: when a pass leaves this
// few dirty regions, the next copy happens inside the pause window.
const migStopCopyRegions = 8

// MigrateVM live-migrates mirror leg slot of a mirrored VM to fleet device
// dstIdx: CoW-snapshot the source image, bulk-copy it to the destination's
// filesystem while the guest keeps running, chase dirtied regions in
// bounded pre-copy passes, then pause submissions, copy the remainder,
// atomically retarget the mirror leg to a fresh VF on the destination, and
// resume. Acknowledged writes are never lost: every post-snapshot write is
// either caught by a pass or copied inside the pause window.
func (h *Hypervisor) MigrateVM(p *sim.Proc, vm *VM, slot, dstIdx int) (MigrationReport, error) {
	var rep MigrationReport
	if vm.Client == nil {
		return rep, fmt.Errorf("hypervisor: %s is not a mirrored VM", vm.Name)
	}
	if slot < 0 || slot >= len(vm.Legs) {
		return rep, fmt.Errorf("hypervisor: %s has no mirror leg %d", vm.Name, slot)
	}
	if dstIdx < 0 || dstIdx >= len(h.devs) {
		return rep, fmt.Errorf("hypervisor: no device %d", dstIdx)
	}
	leg := &vm.Legs[slot]
	src, dst := leg.Dev, h.devs[dstIdx]
	if src == dst {
		return rep, fmt.Errorf("hypervisor: leg %d already on device %d", slot, dstIdx)
	}
	for _, other := range vm.Legs {
		if other.Dev == dst {
			return rep, fmt.Errorf("hypervisor: device %d already mirrors %s", dstIdx, vm.Name)
		}
	}
	path, uid := vm.DiskPath, vm.UID
	bs := uint64(dst.Ctl.P.BlockSize)
	start := p.Now()

	// Arm dirty tracking before freezing the image so no write acknowledged
	// after the snapshot point can slip between snapshot and tracking.
	dlog := vm.Client.TrackDirty(migRegionBlocks)
	defer vm.Client.StopTracking()

	// Bulk phase: freeze the source image with a CoW snapshot and copy the
	// frozen bytes; the guest keeps writing to the live file throughout.
	snapPath := path + ".migrating"
	if err := src.SnapshotFile(p, path, snapPath, uid); err != nil {
		return rep, fmt.Errorf("hypervisor: migration snapshot: %w", err)
	}
	snapF, err := src.HostFS.Open(p, snapPath, uid, extfs.PermRead)
	if err != nil {
		return rep, err
	}
	sizeBlocks := (snapF.Size() + bs - 1) / bs
	if err := dst.MkImage(p, path, uid, sizeBlocks, false); err != nil {
		return rep, fmt.Errorf("hypervisor: migration target image: %w", err)
	}
	dstF, err := dst.HostFS.Open(p, path, uid, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		return rep, err
	}
	if err := h.copyFileRange(p, snapF, dstF, 0, sizeBlocks, bs); err != nil {
		return rep, fmt.Errorf("hypervisor: migration bulk copy: %w", err)
	}
	rep.BulkBlocks = int64(sizeBlocks)
	if err := src.HostFS.Remove(p, snapPath, uid); err != nil {
		return rep, err
	}

	// Pre-copy phase: chase regions the guest dirtied, reading the live
	// source file. Clear-then-copy converges: a write racing the copy
	// re-marks its region for the next round.
	liveF, err := src.HostFS.Open(p, path, uid, extfs.PermRead)
	if err != nil {
		return rep, err
	}
	for pass := 0; pass < migMaxPasses; pass++ {
		if dlog.DirtyRegions() <= migStopCopyRegions {
			break
		}
		n, err := h.copyDirtyRegions(p, dlog, liveF, dstF, bs)
		if err != nil {
			return rep, fmt.Errorf("hypervisor: migration pass %d: %w", pass+1, err)
		}
		rep.Passes++
		rep.PassBlocks += n
	}

	// Stop-and-copy: gate submissions, drain in-flight I/O, copy the
	// remaining dirty regions from a quiesced source, and retarget the
	// mirror leg to a fresh VF on the destination.
	vm.Client.Pause(p)
	pauseStart := p.Now()
	resume := func() { vm.Client.Resume() }
	n, err := h.copyDirtyRegions(p, dlog, liveF, dstF, bs)
	if err != nil {
		resume()
		return rep, fmt.Errorf("hypervisor: migration final copy: %w", err)
	}
	rep.PauseBlocks = n
	newIdx, err := dst.CreateVF(p, path, uid)
	if err != nil {
		resume()
		return rep, fmt.Errorf("hypervisor: migration target VF: %w", err)
	}
	if vm.cfg.IOWeight > 0 {
		dst.SetVFWeight(p, newIdx, vm.cfg.IOWeight)
	}
	newDrv, err := h.newVFDriver(p, dst, newIdx, vm.cfg)
	if err != nil {
		resume()
		return rep, err
	}
	h.wireLeg(dst, newIdx, newDrv, vm)
	if err := vm.Client.Retarget(slot, dstIdx, newDrv); err != nil {
		resume()
		return rep, err
	}
	h.unwireLeg(p, src, leg.VFIdx)
	if err := src.HostFS.Remove(p, path, uid); err != nil {
		resume()
		return rep, err
	}
	leg.Dev, leg.VFIdx, leg.Drv = dst, newIdx, newDrv
	resume()
	rep.Pause = p.Now() - pauseStart
	rep.Total = p.Now() - start
	h.Migrations++
	h.LastMigration = rep
	return rep, nil
}

// copyFileRange copies [startBlk, startBlk+nBlocks) between open files in
// bounded chunks.
func (h *Hypervisor) copyFileRange(p *sim.Proc, src, dst *extfs.File, startBlk, nBlocks, bs uint64) error {
	const chunkBlocks = 64
	buf := make([]byte, chunkBlocks*bs)
	for off := startBlk; off < startBlk+nBlocks; {
		n := startBlk + nBlocks - off
		if n > chunkBlocks {
			n = chunkBlocks
		}
		b := buf[:n*bs]
		if _, err := src.ReadAt(p, b, int64(off*bs)); err != nil {
			return err
		}
		if _, err := dst.WriteAt(p, b, int64(off*bs)); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// copyDirtyRegions drains the dirty log once, copying each marked region
// from src to dst; returns blocks copied. Concurrent writes may re-mark
// regions behind the cursor — they belong to the next round.
func (h *Hypervisor) copyDirtyRegions(p *sim.Proc, dlog *extfs.DirtyLog, src, dst *extfs.File, bs uint64) (int64, error) {
	var blocks int64
	fileBlocks := (src.Size() + bs - 1) / bs
	for r := dlog.Next(0); r >= 0; r = dlog.Next(r + 1) {
		dlog.Clear(r)
		lba, count := dlog.RegionSpan(r)
		if lba >= fileBlocks {
			continue
		}
		if lba+count > fileBlocks {
			count = fileBlocks - lba
		}
		if err := h.copyFileRange(p, src, dst, lba, count, bs); err != nil {
			return blocks, err
		}
		blocks += int64(count)
	}
	return blocks, nil
}
