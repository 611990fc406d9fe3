package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nesc/internal/core"
	"nesc/internal/extent"
	"nesc/internal/extfs"
	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// VF lifecycle and the translation-miss service path (paper §IV-C), one copy
// per managed controller; DESIGN.md §7 has the table of its transitions.

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
func exportingFile(st *vfState, _ bool) bool { return st.shared != nil && st.shared.file != nil }

// CreateVF exports the host file at path as a virtual function on behalf of
// uid: it opens the file, which checks the filesystem permissions, translates
// the file's extent map into a device extent tree in host memory, and
// programs the VF's management block. It returns the VF index.
//
// Exporting the same file again shares the existing extent tree across the
// VFs (paper §IV-B); the tree stays consistent for all sharers, while data
// synchronization remains the clients' responsibility.
func (d *Device) CreateVF(p *sim.Proc, path string, uid uint32) (int, error) {
	// The protection gate: the hypervisor only exports files the requesting
	// tenant may access (read+write for a block device).
	f, err := d.HostFS.Open(p, path, uid, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		return 0, fmt.Errorf("hypervisor: VF creation denied: %w", err)
	}
	bs := uint64(d.Ctl.P.BlockSize)
	return d.export(p, path, f, (f.Size()+bs-1)/bs)
}

// CreateRawVF exports the whole physical device through a VF with an
// identity vLBA→pLBA mapping — NeSC "managing a single disk can be viewed
// simply as a PCIe SSD" (§II); this is the direct-device-assignment
// configuration of Figure 2.
func (d *Device) CreateRawVF(p *sim.Proc) (int, error) {
	return d.export(p, "", nil, uint64(d.Ctl.Medium.Store().NumBlocks()))
}

// export is the one VF creator: it takes the lowest free VF, joins the sharers
// of the tree exported over path (building it from file's extent map for the
// first one, which keeps file), and programs the VF's management block. A raw
// VF (no file) gets an identity tree of its own, which no other VF joins.
func (d *Device) export(p *sim.Proc, path string, file *extfs.File, sizeBlocks uint64) (int, error) {
	idx, err := d.freeVF()
	if err != nil {
		return 0, err
	}
	// freeVF hands out no VF a transition holds: nothing to re-validate.
	err = d.transition(p, idx, nil, func(st *vfState) error {
		sh := d.trees[path] // "" names no entry
		if sh == nil {
			runs := []extent.Run{{Count: sizeBlocks}} // the identity map
			if file != nil {
				runs = file.Extents()
			}
			tree, err := extent.Build(d.h.Mem, runs, extent.DefaultFanout)
			if err != nil {
				return err
			}
			sh = &sharedTree{path: path, file: file, tree: tree}
			if file != nil {
				d.trees[path] = sh
			}
		}
		i, _ := slices.BinarySearch(sh.vfs, idx)
		sh.vfs = slices.Insert(sh.vfs, i, idx)
		st.shared, st.sizeBlocks = sh, sizeBlocks
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
// no-op on a VF that exports nothing. With drain set it also waits, still
// holding the VF, until the device has retired every request the function had
// fetched, so the memory those requests name can be freed once it returns. The
// record and its lock outlive it.
func (d *Device) DestroyVF(p *sim.Proc, idx int, drain bool) {
	_ = d.transition(p, idx, exporting, func(st *vfState) error { // errStale: nothing to destroy
		d.h.mmioW(p, d.mgmtAddr(idx)+ring.MgmtEnable, 0)
		if drain {
			d.drain(p, idx)
		}
		sh := st.shared
		i, _ := slices.BinarySearch(sh.vfs, idx)
		sh.vfs = slices.Delete(sh.vfs, i, i+1)
		if len(sh.vfs) == 0 {
			sh.tree.Free()
			delete(d.trees, sh.path)
		}
		st.shared, st.sizeBlocks = nil, 0
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

// remap brings the device's view of an export up to date after a
// host-filesystem call that changed the file's map in vLBA range
// [vlba, vlba+count) — anywhere, when count is 0 — and returned hostErr: an
// Edit of the shared tree over the range, or a Rebuild after a whole-file
// change, reading the inode's own list with no park in between. A failed
// call may have changed the map too (a transaction does not restore the
// inode), so the tree follows it all the same; a whole-file failure edits
// every leaf, which publishes nothing if nothing changed. The root is then
// written to every sharer — after a call that succeeded, else if it moved —
// and remap reports whether it was; which cached translations went stale is
// the caller's to say. The error is hostErr, else the tree's.
func (d *Device) remap(p *sim.Proc, sh *sharedTree, vlba, count uint64, hostErr error) (bool, error) {
	root, runs := sh.tree.Root(), sh.file.Extents()
	var err error
	switch {
	case count > 0:
		err = sh.tree.Edit(runs, vlba, vlba+count)
	case hostErr == nil:
		err = sh.tree.Rebuild(runs)
	default:
		err = sh.tree.Edit(runs, 0, math.MaxUint64)
	}
	published := err == nil && (hostErr == nil || sh.tree.Root() != root)
	if published {
		for idx, ok := sh.next(-1); ok; idx, ok = sh.next(idx) {
			d.h.mmioW(p, d.mgmtAddr(idx)+ring.MgmtTreeRoot, uint64(sh.tree.Root()))
		}
	}
	if hostErr != nil {
		return published, hostErr
	}
	return published, err
}

// serviceMisses is the NeSC miss-interrupt handler (paper Fig. 5b): for
// every VF with a latched miss it allocates backing blocks through the host
// filesystem (lazy allocation), rebuilds the device extent tree from the
// file's refreshed mapping, reprograms the tree root, and releases the
// stalled walk with RewalkTree.
func (d *Device) serviceMisses(p *sim.Proc) {
	// One register read per 64 configured VFs (core.New holds NumVFs to the
	// banks the register file has).
	for k := 0; k < (d.Ctl.P.NumVFs+63)/64; k++ {
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
// FetchSource materialize the blocks' content). All end with an edit of the
// tree over the missed range and a retry, so the device re-walks and finds a
// writable mapping.
func (d *Device) resolveMiss(p *sim.Proc, idx int) uint64 {
	h := d.h
	h.MissInterrupts++
	mgmt := d.mgmtAddr(idx)
	missAddr := h.mmioR(p, mgmt+ring.MgmtMissAddr)
	missSize, reason, write := ring.DecodeMiss(h.mmioR(p, mgmt+ring.MgmtMissSize))
	dec := h.inj.Decide(fault.MissHandler)
	p.Sleep(h.P.MissHandlerTime + dec.Delay)
	if dec.Fault {
		// Injected allocation failure: the hypervisor cannot extend the
		// backing file, so the stalled walk is released with a failure.
		h.MissFaults++
		return ring.RewalkFail
	}
	st := d.vf(idx)
	sh := st.shared
	if sh == nil || sh.file == nil {
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
		// path's source. The direction only labels attribution rows.
		op := "read"
		if write {
			op = "write"
		}
		h.FetchMisses++
		if src := d.Fetch[sh.path]; src != nil {
			err = src.Materialize(p, d, idx, sh.path, missAddr, missSize, op)
		} else {
			err = fmt.Errorf("hypervisor: VF %d path %q has no fetch source", idx, sh.path)
		}
	case cow:
		err = sh.file.BreakShare(p, missAddr, missSize)
	default:
		err = sh.file.Allocate(p, missAddr, missSize)
	}
	// Every sharer of the tree must see the new root before the walk
	// resumes, and the tree must follow whatever the call changed, failed
	// or not.
	published, err := d.remap(p, sh, missAddr, missSize, err)
	if published && (cow || fetch) {
		// The faulting blocks moved to a private copy, or materialization
		// rewrote their mappings: any BTLB entry still caching the old one is
		// stale. Invalidate before the retry so the re-walk's result is what
		// gets cached.
		d.invalidateSharers(p, sh, missAddr, missSize)
	}
	if err != nil {
		return ring.RewalkFail
	}
	if cow {
		h.CowBreaks++
		d.Ctl.Report(core.Event{Kind: core.EvCowBreak, Fn: idx + 1, Arg: uint64(p.Now() - start)})
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
	d.drain(p, idx)
	h.VFResets++
	if mq := h.qps[d.Ctl.VF(idx).ID()].mq; mq != nil {
		return mq.Recover(p)
	}
	return nil
}

// drain polls VF idx's reset register until the device reports no request of
// the function in flight: every chunk retired, its DMA landed.
func (d *Device) drain(p *sim.Proc, idx int) {
	for d.h.mmioR(p, d.VFPageBus(idx)+ring.RegReset) != 0 {
		p.Sleep(5 * sim.Microsecond)
	}
}

// MigrateVFFile relocates the physical blocks behind a VF's backing file —
// standing in for host-side block optimizations like deduplication or
// defragmentation — then rebuilds the device extent tree and invalidates the
// device's translation cache. The paper (§V-B) requires exactly this flush:
// "the BTLB cache must not prevent the hypervisor from executing traditional
// storage optimizations".
func (d *Device) MigrateVFFile(p *sim.Proc, idx int) error {
	return d.transition(p, idx, exportingFile, func(st *vfState) error {
		published, err := d.remap(p, st.shared, 0, 0, st.shared.file.Migrate(p))
		if published {
			d.FlushBTLB(p)
		}
		return err
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
