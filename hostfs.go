package nesc

import (
	"errors"
	"io"

	"nesc/internal/extfs"
	"nesc/internal/hypervisor"
)

// Host filesystem operations: what a cloud operator does on the
// hypervisor's own filesystem before exporting files to tenants. The calls
// that name no device act on host 0 — its filesystem, its VFs' extent trees,
// its translation cache; CreateImageOn and the other …On forms reach the rest
// of the fleet.

// host is fleet device 0, the one every device-less Ctx call acts on.
func (c *Ctx) host() *hypervisor.Device { return c.s.pl.Hyp.Device(0) }

// CreateImage creates a disk-image file owned by uid, sized up to whole
// blocks. When sparse is false the image is fully preallocated; a sparse
// image allocates on first write through NeSC's lazy-allocation miss path.
// It is CreateImageOn at device 0.
func (c *Ctx) CreateImage(path string, uid uint32, sizeBytes int64, sparse bool) error {
	return c.CreateImageOn(0, path, uid, sizeBytes, sparse)
}

// WriteHostFile writes data at off into an existing host file (as root),
// creating it if absent.
func (c *Ctx) WriteHostFile(path string, data []byte, off int64) error {
	fs := c.host().HostFS
	f, err := fs.Open(c.proc, path, 0, extfs.PermRead|extfs.PermWrite)
	if errors.Is(err, extfs.ErrNotExist) {
		f, err = fs.Create(c.proc, path, 0, 0o644)
	}
	if err != nil {
		return err
	}
	_, err = f.WriteAt(c.proc, data, off)
	return err
}

// ReadHostFile reads len(p) bytes at off from a host file (as root),
// returning the bytes read.
func (c *Ctx) ReadHostFile(path string, p []byte, off int64) (int, error) {
	f, err := c.host().HostFS.Open(c.proc, path, 0, extfs.PermRead)
	if err != nil {
		return 0, err
	}
	n, err := f.ReadAt(c.proc, p, off)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// HostMkdir creates a world-writable directory on the host filesystem (a
// shared image spool; per-tenant isolation comes from the image files' own
// 0600 modes).
func (c *Ctx) HostMkdir(path string, uid uint32) error {
	return c.host().HostFS.Mkdir(c.proc, path, uid, 0o777)
}

// HostList lists a host directory.
func (c *Ctx) HostList(dir string) ([]string, error) {
	ents, err := c.host().HostFS.ReadDir(c.proc, dir, 0)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	return names, nil
}

// HostStat describes a host file.
type HostStat struct {
	Size    int64
	UID     uint32
	Mode    uint16
	IsDir   bool
	Extents int
}

// StatHost stats a host path.
func (c *Ctx) StatHost(path string) (HostStat, error) {
	info, err := c.host().HostFS.Stat(c.proc, path, 0)
	if err != nil {
		return HostStat{}, err
	}
	return HostStat{
		Size:    int64(info.Size),
		UID:     info.UID,
		Mode:    info.Mode & 0o777,
		IsDir:   info.IsDir(),
		Extents: info.Extents,
	}, nil
}

// CheckHostFS runs the host filesystem's consistency check (fsck).
func (c *Ctx) CheckHostFS() error { return c.host().HostFS.Check(c.proc) }

// PruneExtentTrees reclaims host memory by pruning up to maxNodes nodes per
// VF extent tree; the device regenerates pruned mappings on demand through
// miss interrupts.
func (c *Ctx) PruneExtentTrees(maxNodes int) int {
	return c.host().PruneVFTrees(maxNodes)
}

// FlushBTLB invalidates the device's translation cache, as required around
// host-side block remapping (e.g. deduplication).
func (c *Ctx) FlushBTLB() { c.host().FlushBTLB(c.proc) }

// SnapshotImage captures a copy-on-write snapshot of a host file at
// snapPath on behalf of uid: the snapshot shares every data block with the
// source until one side writes it. If the source is currently exported
// through a NeSC VF, the device mapping is refreshed so guest writes to
// shared extents take the CoW fault path.
func (c *Ctx) SnapshotImage(path, snapPath string, uid uint32) error {
	return c.host().SnapshotFile(c.proc, path, snapPath, uid)
}

// DeleteSnapshot removes a snapshot (or any image) file and reclaims its
// space: blocks still shared just drop one reference, private blocks return
// to the free pool. Refuses while the file is exported through a VF — stop
// the VM first.
func (c *Ctx) DeleteSnapshot(path string, uid uint32) error {
	return c.host().DeleteSnapshot(c.proc, path, uid)
}

// SharedBlocks reports how many host-filesystem data blocks are currently
// shared between snapshot/clone images (blocks with extra references).
func (c *Ctx) SharedBlocks() int64 { return c.host().HostFS.SharedBlocks() }

// MigrateImage relocates the physical blocks behind a VM's disk image (a
// stand-in for host-side deduplication or defragmentation), rebuilds the
// device extent tree, and flushes the BTLB — the full §V-B flow. The VM
// keeps running; its next accesses translate through the new mapping.
func (c *Ctx) MigrateImage(vm *VM) error {
	leg, err := vm.leg("migrate the image of")
	if err != nil {
		return err
	}
	return leg.Dev.MigrateVFFile(c.proc, leg.VFIdx)
}
