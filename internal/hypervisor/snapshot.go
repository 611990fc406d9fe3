package hypervisor

import (
	"errors"
	"fmt"
	"math"

	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Snapshot and clone management. A snapshot is a copy-on-write image of a
// VF's backing file taken through the host filesystem; a clone exports such
// an image through a fresh VF, giving a tenant a writable fork that shares
// every unmodified block with the parent. The device enforces the sharing:
// the extent entries it walks carry the write-protect flag, so a guest
// write to a shared extent raises a translation-miss interrupt with
// MissReasonCoW and stalls until the hypervisor has broken the sharing
// (serviceMiss), exactly like the lazy-allocation path.

// invalidateSharers drops the BTLB entries overlapping vLBA range
// [vlba, vlba+count) of every function that walks st's tree; count 0
// invalidates each one's whole footprint. The BTLB is keyed by function, so
// a remap one sharer caused leaves the same stale translation cached under
// every other sharer's index: whoever changes a shared tree invalidates for
// all of them. Three-register MMIO command per function: latch the range,
// then writing the function index fires the invalidation.
func (d *Device) invalidateSharers(p *sim.Proc, st *vfState, vlba, count uint64) {
	base, sh := d.Ctl.BARBase(), st.shared
	for idx, ok := sh.next(-1); ok; idx, ok = sh.next(idx) {
		d.h.mmioW(p, base+ring.PFRegInvVLBA, vlba)
		d.h.mmioW(p, base+ring.PFRegInvCount, count)
		d.h.mmioW(p, base+ring.PFRegInvFn, uint64(idx+1))
	}
}

// SnapshotVF captures a copy-on-write snapshot of a VF's backing file at
// dstPath on behalf of uid. The source VF keeps running: its extents become
// write-protected, so the first guest write to each shared extent takes a
// CoW fault and gets a private copy. The snapshot itself is an ordinary
// host file — export it with CreateVF, or keep it as a point-in-time backup.
func (d *Device) SnapshotVF(p *sim.Proc, idx int, dstPath string, uid uint32) error {
	return d.transition(p, idx, exportingFile, func(st *vfState) error {
		if err := d.HostFS.Snapshot(p, st.path, dstPath, uid); err != nil {
			return err
		}
		d.h.Snapshots++
		// The BTLB may cache pre-snapshot, unprotected translations: drop them
		// all once the write-protected tree is in place.
		if err := d.remap(p, st); err != nil {
			return err
		}
		d.invalidateSharers(p, st, 0, 0)
		return nil
	})
}

// CloneVF snapshots VF idx's disk to clonePath for uid — a writable fork
// sharing every unmodified block with the parent — and is the one place a
// clone is counted. The fork is exported once, by whoever boots a guest on it.
func (d *Device) CloneVF(p *sim.Proc, idx int, clonePath string, uid uint32) error {
	if err := d.SnapshotVF(p, idx, clonePath, uid); err != nil {
		return err
	}
	d.h.Clones++
	return nil
}

// SnapshotFile captures a copy-on-write snapshot of an arbitrary host file.
// If the file is currently exported through a VF the call is routed through
// SnapshotVF so the device mapping picks up the write-protect flags;
// otherwise it is a plain filesystem snapshot.
func (d *Device) SnapshotFile(p *sim.Proc, path, dstPath string, uid uint32) error {
	if idx := d.exporter(path); idx >= 0 {
		return d.SnapshotVF(p, idx, dstPath, uid)
	}
	if err := d.HostFS.Snapshot(p, path, dstPath, uid); err != nil {
		return err
	}
	d.h.Snapshots++
	return nil
}

// Unprotect undoes what a snapshot that has since been removed did to the
// exported file at path: its extents become writable in place, the tree of the
// VF exporting it is rebuilt and the cached translations dropped, so the
// guest's next writes take no CoW fault. It acts only when, once the VF's lock
// is granted, no block of the device is shared any more, so that no block is
// ever copied; otherwise the flags may be live and the CoW-fault path clears
// the stale ones write by write, as it does after DeleteSnapshot.
func (d *Device) Unprotect(p *sim.Proc, path string) error {
	idx := d.exporter(path)
	if idx < 0 {
		return nil
	}
	unshared := func(st *vfState, _ bool) bool {
		return st.path == path && d.HostFS.SharedBlocks() == 0
	}
	err := d.transition(p, idx, unshared, func(st *vfState) error {
		if err := d.HostFS.BreakRange(p, path, 0, math.MaxUint64); err != nil {
			return err
		}
		if err := d.remap(p, st); err != nil {
			return err
		}
		d.invalidateSharers(p, st, 0, 0)
		return nil
	})
	if errors.Is(err, errStale) {
		return nil
	}
	return err
}

// exporter finds the first VF exporting the host file at path; -1 when none
// does.
func (d *Device) exporter(path string) int {
	if sh := d.trees[path]; sh != nil {
		return sh.vfs[0]
	}
	return -1
}

// DeleteSnapshot removes a snapshot file and reclaims its space: blocks
// still shared with the parent (or other clones) just drop one reference;
// blocks private to the snapshot return to the free pool. Refuses while the
// file is exported through a VF — destroy the VF first.
func (d *Device) DeleteSnapshot(p *sim.Proc, path string, uid uint32) error {
	if _, exported := d.trees[path]; exported {
		return fmt.Errorf("hypervisor: %s is exported through a VF", path)
	}
	return d.HostFS.Remove(p, path, uid)
}
