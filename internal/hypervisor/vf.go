package hypervisor

import (
	"errors"
	"fmt"
	"slices"

	"nesc/internal/extent"
	"nesc/internal/extfs"
	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// VF lifecycle and the translation-miss service path (paper §IV-C), one copy
// per managed controller; DESIGN.md §12 has the table of its transitions.

func (d *Device) mgmtAddr(vfIdx int) int64 {
	return d.Ctl.BARBase() + d.Ctl.MgmtPageOffset() + int64(vfIdx)*ring.MgmtStride
}

// transition is the one way VF idx's record changes: it takes the VF's
// management lock, re-validates what the caller was called for once the lock
// is granted (valid, told whether another transition ran on the VF meanwhile;
// nil when there is nothing to re-validate), runs body unless that fails, and
// releases the lock. No other transition touches the record until body
// returns, parks included. An uncontended grant posts no event.
func (d *Device) transition(p *sim.Proc, idx int, valid func(st *vfState, contended bool) bool, body func(st *vfState) error) error {
	st := d.vf(idx)
	contended := st.lock.Available() == 0
	st.lock.Acquire(p)
	defer st.lock.Release()
	if valid != nil && !valid(st, contended) {
		return errStale
	}
	return body(st)
}

// errStale is a transition whose re-validation failed.
var errStale = errors.New("hypervisor: the VF does not export what the operation needs")

// The re-validations of a transition that needs the VF to export something,
// or a host file.
func exporting(st *vfState, _ bool) bool     { return st.shared != nil }
func exportingFile(st *vfState, _ bool) bool { return st.path != "" }

// CreateVF exports the host file at path as a virtual function on behalf of
// uid: it checks the filesystem permissions, translates the file's extent
// map into a device extent tree in host memory, and programs the VF's
// management block. It returns the VF index.
//
// Exporting the same file again shares the existing extent tree across the
// VFs (paper §IV-B); the tree stays consistent for all sharers, while data
// synchronization remains the clients' responsibility.
func (d *Device) CreateVF(p *sim.Proc, path string, uid uint32) (int, error) {
	// The protection gate: the hypervisor only exports files the requesting
	// tenant may access (read+write for a block device).
	if err := d.HostFS.Access(p, path, uid, extfs.PermRead|extfs.PermWrite); err != nil {
		return 0, fmt.Errorf("hypervisor: VF creation denied: %w", err)
	}
	runs, size, err := d.HostFS.Runs(p, path)
	if err != nil {
		return 0, err
	}
	bs := uint64(d.Ctl.P.BlockSize)
	return d.export(p, path, runs, (size+bs-1)/bs)
}

// CreateRawVF exports the whole physical device through a VF with an
// identity vLBA→pLBA mapping — NeSC "managing a single disk can be viewed
// simply as a PCIe SSD" (§II); this is the direct-device-assignment
// configuration of Figure 2.
func (d *Device) CreateRawVF(p *sim.Proc) (int, error) {
	blocks := uint64(d.Ctl.Medium.Store().NumBlocks())
	return d.export(p, "", []extent.Run{{Logical: 0, Physical: 0, Count: blocks}}, blocks)
}

// export is the one VF creator: it takes the lowest free VF, joins the sharers
// of the tree exported under path (building it from runs for the first one),
// and programs the VF's management block. A raw VF (path "") is the identity
// run under a synthetic key of its own.
func (d *Device) export(p *sim.Proc, path string, runs []extent.Run, sizeBlocks uint64) (int, error) {
	idx, err := d.freeVF()
	if err != nil {
		return 0, err
	}
	key := path
	if path == "" {
		key = fmt.Sprintf("\x00raw-vf-%d", idx) // cannot collide with host paths
	}
	// freeVF hands out no VF a transition holds: nothing to re-validate.
	err = d.transition(p, idx, nil, func(st *vfState) error {
		sh := d.trees[key]
		if sh == nil {
			tree, err := extent.Build(d.h.Mem, runs, extent.DefaultFanout)
			if err != nil {
				return err
			}
			sh = &sharedTree{key: key, tree: tree}
			d.trees[key] = sh
		}
		i, _ := slices.BinarySearch(sh.vfs, idx)
		sh.vfs = slices.Insert(sh.vfs, i, idx)
		st.shared, st.path, st.sizeBlocks = sh, path, sizeBlocks
		mgmt := d.mgmtAddr(idx)
		d.h.mmioW(p, mgmt+ring.MgmtTreeRoot, uint64(sh.tree.Root()))
		d.h.mmioW(p, mgmt+ring.MgmtDeviceSize, sizeBlocks)
		if n := d.Ctl.P.QueuesPerVF; n > 1 {
			// Program the VF's active queue count. Skipped at the single-queue
			// default so the fault-free MMIO schedule is bit-identical to the
			// pre-multi-queue device.
			d.h.mmioW(p, mgmt+ring.MgmtQueues, uint64(n))
		}
		d.h.mmioW(p, mgmt+ring.MgmtEnable, 1)
		sriov := d.Ctl.SRIOV()
		if err := sriov.EnableVFs(sriov.NumEnabled + 1); err != nil {
			panic(err)
		}
		if d.Fetch[path] != nil {
			// Arm the fetch-backed bit. Written only for a bound path, so a
			// platform that binds nothing keeps its MMIO schedule.
			d.h.mmioW(p, mgmt+ring.MgmtFetch, 1)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return idx, nil
}

func (d *Device) freeVF() (int, error) {
	// Lowest-index-first, exactly as the eager table allocated: a
	// never-touched slot (nil or beyond the lazy table's length) is free, and
	// so is a record that exports nothing and is in no transition.
	for i := 0; i < d.Ctl.P.NumVFs; i++ {
		if st := d.vfAt(i); st == nil || st.shared == nil && st.lock.Available() > 0 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("hypervisor: out of virtual functions")
}

// DestroyVF disables a VF and drops it from its tree's sharers, freeing the
// tree with its last sharer. A teardown is a transition: it waits for one in
// flight on the VF rather than pull the export out from under it, and is a
// no-op on a VF that exports nothing. The record and its lock outlive it.
func (d *Device) DestroyVF(p *sim.Proc, idx int) {
	_ = d.transition(p, idx, exporting, func(st *vfState) error { // errStale: nothing to destroy
		d.h.mmioW(p, d.mgmtAddr(idx)+ring.MgmtEnable, 0)
		sh := st.shared
		i, _ := slices.BinarySearch(sh.vfs, idx)
		sh.vfs = slices.Delete(sh.vfs, i, i+1)
		if len(sh.vfs) == 0 {
			sh.tree.Free()
			delete(d.trees, sh.key)
		}
		st.shared, st.path, st.sizeBlocks = nil, "", 0
		sriov := d.Ctl.SRIOV()
		if err := sriov.EnableVFs(sriov.NumEnabled - 1); err != nil {
			panic(err)
		}
		return nil
	})
}

// VFPageBus reports the bus address of a VF's register page — what the
// hypervisor maps into the owning guest's address space.
func (d *Device) VFPageBus(idx int) int64 {
	return d.Ctl.BARBase() + d.Ctl.FunctionPageOffset(idx+1)
}

// VFTree exposes a VF's extent tree (for the pruning ablation).
func (d *Device) VFTree(idx int) *extent.Tree { return d.vf(idx).shared.tree }

// VFInUse reports whether VF idx currently exports something.
func (d *Device) VFInUse(idx int) bool {
	st := d.vfAt(idx)
	return st != nil && st.shared != nil
}

// SharesTreeWith reports whether two VFs share one extent tree.
func (d *Device) SharesTreeWith(a, b int) bool {
	st := d.vfAt(a)
	return st != nil && st.shared != nil && slices.Contains(st.shared.vfs, b)
}

// PruneVFTrees reclaims host memory by pruning up to maxNodes nodes from
// each in-use tree (paper §IV-B "If memory becomes tight..."); shared trees
// are pruned once.
func (d *Device) PruneVFTrees(maxNodes int) int {
	total := 0
	for _, sh := range d.trees {
		n, err := sh.tree.Prune(maxNodes)
		if err != nil {
			panic(err)
		}
		total += n
	}
	return total
}

// remap brings the device's view of st's export up to date with the host
// filesystem: re-read the file's extent map, rebuild the shared device tree
// from it, and write the (possibly new) root into the management block of
// every VF sharing the tree — the old nodes are freed, so a stale root
// register would walk dead memory. Which cached translations the change made
// stale is the caller's to say; each invalidates its own way afterwards.
func (d *Device) remap(p *sim.Proc, st *vfState) error {
	// Sharers' remaps may interleave at every park and all fill sh.runs, which
	// is safe because AppendRuns writes it after its last park (releasing the
	// filesystem lock does not park) and Rebuild, which copies it, runs before
	// the next one.
	sh := st.shared
	runs, _, err := d.HostFS.AppendRuns(p, st.path, sh.runs[:0])
	if err != nil {
		return err
	}
	sh.runs = runs
	if err := sh.tree.Rebuild(runs); err != nil {
		return err
	}
	for idx, ok := sh.next(-1); ok; idx, ok = sh.next(idx) {
		d.h.mmioW(p, d.mgmtAddr(idx)+ring.MgmtTreeRoot, uint64(sh.tree.Root()))
	}
	return nil
}

// serviceMisses is the NeSC miss-interrupt handler (paper Fig. 5b): for
// every VF with a latched miss it allocates backing blocks through the host
// filesystem (lazy allocation), rebuilds the device extent tree from the
// file's refreshed mapping, reprograms the tree root, and releases the
// stalled walk with RewalkTree.
func (d *Device) serviceMisses(p *sim.Proc) {
	// One register read per 64 configured VFs.
	banks := (d.Ctl.P.NumVFs + 63) / 64
	if banks > ring.PFRegMissPendingBanks {
		banks = ring.PFRegMissPendingBanks
	}
	for k := 0; k < banks; k++ {
		d.serviceMissBank(p, k, d.Ctl.BARBase()+ring.PFRegMissPendingBank+int64(k)*8)
	}
}

// serviceMissBank reads one 64-VF miss-pending bank at register reg and
// services every latched bit in it, each service a transition on its VF.
func (d *Device) serviceMissBank(p *sim.Proc, bank int, reg int64) {
	pending := d.h.mmioR(p, reg)
	stale := false
	for bit := 0; bit < 64 && pending != 0; bit++ {
		idx := bank*64 + bit
		if idx >= d.Ctl.P.NumVFs {
			break
		}
		mask := uint64(1) << uint(bit)
		if pending&mask == 0 {
			continue
		}
		st := d.vf(idx)
		if st.busy {
			// This VF's miss is already mid-service: allocation runs through
			// the PF rings and takes far longer than the device's miss-resend
			// cadence, so resent MSIs routinely observe a still-pending bit.
			// Servicing it twice would double-roll the injector and write a
			// second, stale rewalk verdict onto whatever miss latches next.
			continue
		}
		if stale {
			// An earlier transition in this sweep parked, so the bank snapshot
			// is stale: a concurrent handler may have serviced this bit long
			// ago. Servicing it again would write a second rewalk verdict onto
			// whatever miss latches next (and, on a fetch-backed VF,
			// re-materialize chunks the guest may have overwritten since) — so
			// spend one register read to confirm the miss is still latched.
			pending = d.h.mmioR(p, reg)
			if pending&mask == 0 {
				continue
			}
		}
		// The sweep's re-validation: a transition that ran while it waited for
		// the lock may have aborted the latched miss — an FLR clears the
		// pending bit and fails the stalled walk — so a contended grant re-reads
		// the bit before writing a verdict that would land on whatever miss
		// latches next. A VF torn down meanwhile still gets its verdict:
		// resolveMiss fails the walk.
		latched := func(_ *vfState, contended bool) bool {
			return !contended || d.h.mmioR(p, reg)&mask != 0
		}
		st.busy = true
		_ = d.transition(p, idx, latched, func(*vfState) error { // errStale: the miss is gone
			d.serviceMiss(p, idx)
			return nil
		})
		st.busy = false
		stale = true
	}
}

// serviceMiss handles one VF's latched miss end to end and always releases
// the stalled walk with exactly one rewalk verdict: whatever resolveMiss
// returned, written here and nowhere else.
func (d *Device) serviceMiss(p *sim.Proc, idx int) {
	verdict := d.resolveMiss(p, idx)
	d.h.mmioW(p, d.mgmtAddr(idx)+ring.MgmtRewalk, verdict)
}

// resolveMiss does the work behind one latched miss and returns the rewalk
// verdict. Three reasons reach here: MissReasonTranslate (a hole — extend the
// file, the lazy-allocation path), MissReasonCoW (a write hit a
// write-protected extent — break the snapshot sharing for the faulting
// blocks), and MissReasonFetch (a hole on a fetch-backed VF — have the path's
// FetchSource materialize the blocks' content). All end with a tree rebuild and a
// retry, so the device re-walks and finds a writable mapping.
func (d *Device) resolveMiss(p *sim.Proc, idx int) uint64 {
	h := d.h
	h.MissInterrupts++
	mgmt := d.mgmtAddr(idx)
	missAddr := h.mmioR(p, mgmt+ring.MgmtMissAddr)
	sizeReason := h.mmioR(p, mgmt+ring.MgmtMissSize)
	missSize := sizeReason & 0xFFFFFFFF
	reason := uint32(sizeReason >> 32)
	dec := h.inj.Decide(fault.MissHandler)
	p.Sleep(h.P.MissHandlerTime + dec.Delay)
	if dec.Fault {
		// Injected allocation failure: the hypervisor cannot extend the
		// backing file, so the stalled walk is released with a failure.
		h.MissFaults++
		return ring.RewalkFail
	}
	st := d.vf(idx)
	if st.path == "" {
		// No backing file to extend (a raw VF, or one torn down while its
		// miss was latched): fail the write.
		return ring.RewalkFail
	}
	if missAddr > st.sizeBlocks || missSize > st.sizeBlocks-missAddr {
		// The latched range is the guest's: one outside the export must never
		// reach the host filesystem, which would grow the file to meet it or
		// (at the top of the address space) allocate nothing and miss forever.
		return ring.RewalkFail
	}
	cow := reason == ring.MissReasonCoW
	fetch := reason == ring.MissReasonFetch
	start := p.Now()
	var err error
	switch {
	case fetch:
		// A hole on a fetch-backed VF: the blocks' content lives with the
		// path's source. The extra register read (is the stalled op a read or
		// a write?) only labels attribution rows; it happens unconditionally so
		// the fetch path's schedule is identical with attribution on or off.
		op := "read"
		if h.mmioR(p, mgmt+ring.MgmtMissIsWrite) != 0 {
			op = "write"
		}
		h.FetchMisses++
		if src := d.Fetch[st.path]; src != nil {
			err = src.Materialize(p, d, idx, st.path, missAddr, missSize, op)
		} else {
			err = fmt.Errorf("hypervisor: VF %d path %q has no fetch source", idx, st.path)
		}
	case cow:
		err = d.HostFS.BreakRange(p, st.path, missAddr, missSize)
	default:
		err = d.HostFS.AllocateRange(p, st.path, missAddr, missSize)
	}
	if err != nil {
		return ring.RewalkFail
	}
	// Every sharer of the tree must see the new root before the walk
	// resumes.
	if err := d.remap(p, st); err != nil {
		return ring.RewalkFail
	}
	if cow || fetch {
		// The faulting blocks moved to a private copy, or materialization
		// rewrote their mappings: any BTLB entry still caching the old one is
		// stale. Invalidate before the retry so the re-walk's result is what
		// gets cached.
		d.invalidateSharers(p, st, missAddr, missSize)
	}
	if cow {
		h.CowBreaks++
		h.cowBreak(p.Now() - start)
	}
	return ring.RewalkRetry
}

// ResetVF performs a function-level reset of a VF and re-arms its ring
// client: it writes the reset register, polls until the device reports every
// in-flight chunk drained (across all of the function's queues), then
// rebuilds every queue of the driver through MultiQueue.Recover (which
// aborts parked submitters so they resubmit or surface guest.ErrReset).
// Management state — the exported file and its extent tree — survives; FLR
// recovers a wedged function, it does not deprovision it.
//
// Only the reset write is a transition: the drain's recovered submitters may
// take fresh misses whose service needs the VF's lock, so holding it across
// the poll would deadlock the drain against its own miss service.
func (d *Device) ResetVF(p *sim.Proc, idx int) error {
	h := d.h
	page := d.VFPageBus(idx)
	if err := d.transition(p, idx, exporting, func(*vfState) error {
		h.mmioW(p, page+ring.RegReset, 1)
		return nil
	}); err != nil {
		return err
	}
	for h.mmioR(p, page+ring.RegReset) != 0 {
		p.Sleep(5 * sim.Microsecond)
	}
	h.VFResets++
	if mq := h.qps[d.Ctl.VF(idx).ID()].mq; mq != nil {
		return mq.Recover(p)
	}
	return nil
}

// MigrateVFFile relocates the physical blocks behind a VF's backing file —
// standing in for host-side block optimizations like deduplication or
// defragmentation — then rebuilds the device extent tree and invalidates the
// device's translation cache. The paper (§V-B) requires exactly this flush:
// "the BTLB cache must not prevent the hypervisor from executing traditional
// storage optimizations".
func (d *Device) MigrateVFFile(p *sim.Proc, idx int) error {
	return d.transition(p, idx, exportingFile, func(st *vfState) error {
		if err := d.HostFS.Migrate(p, st.path); err != nil {
			return err
		}
		if err := d.remap(p, st); err != nil {
			return err
		}
		d.FlushBTLB(p)
		return nil
	})
}

// SetVFWeight programs a VF's QoS weight: the device multiplexer serves up
// to weight requests from this VF per scheduling round (paper §IV-D's QoS
// extension). Weights are clamped to 1..255 by the device.
func (d *Device) SetVFWeight(p *sim.Proc, idx int, weight int) {
	d.h.mmioW(p, d.mgmtAddr(idx)+ring.MgmtWeight, uint64(weight))
}

// RouteVFInterrupts delivers a VF's completion interrupts straight to the
// given ring client with no injection cost — the peer-to-peer delivery an
// accelerator directly attached to a VF would get (paper §IV-D "direct
// storage accesses from accelerators").
func (d *Device) RouteVFInterrupts(idx int, mq *guest.MultiQueue) {
	d.route(idx+1, mq, false)
}

// FlushBTLB invalidates the device's translation cache (required around
// host-side block remapping such as deduplication, §V-B).
func (d *Device) FlushBTLB(p *sim.Proc) {
	d.h.mmioW(p, d.Ctl.BARBase()+ring.PFRegBTLBFlush, 1)
}

func (h *Hypervisor) mmioW(p *sim.Proc, addr int64, val uint64) {
	if err := h.Fab.MMIOWrite(p, addr, 8, val); err != nil {
		panic(err)
	}
}

func (h *Hypervisor) mmioR(p *sim.Proc, addr int64) uint64 {
	v, err := h.Fab.MMIORead(p, addr, 8)
	if err != nil {
		panic(err)
	}
	return v
}
