package hypervisor

import (
	"fmt"
	"io"
	"sort"

	"nesc/internal/cas"
	"nesc/internal/core"
	"nesc/internal/extfs"
	"nesc/internal/sim"
	"nesc/internal/slo"
)

// Content-addressed image management: sealing a host image into the cas
// tier, forking a sealed manifest onto any fleet device as a metadata-only
// copy, and materializing forked chunks on first touch through the device's
// translation-miss path (MissReasonFetch).
//
// The flow mirrors golden-image provisioning: one host seals a prepared
// image (content-addressing every block, deduplicating against everything
// already sealed), then any number of hosts fork it. A fork writes no data —
// it takes chunk references and creates a fully sparse backing file — so the
// guest boots immediately; each block's content is fetched from the cas tier
// (or the device's local chunk cache) the first time the guest touches it.

// casBinding ties one device-local backing file to its cas manifest. The
// file handle is opened at fork time with the owning tenant's identity, so
// the miss handler never re-walks the permission check on the hot path.
type casBinding struct {
	name string // manifest name in the store
	file *extfs.File
}

// EnableCAS attaches a content-addressed store to the hypervisor. The store
// is shared across the whole fleet (it models a remote object tier all hosts
// reach); each device gets its own LRU chunk cache of cacheChunks entries
// (0 = no cache: every materialization pays a remote fetch). Call before
// sealing or forking; a nil store keeps the tier disabled.
func (h *Hypervisor) EnableCAS(store *cas.Store, cacheChunks int) {
	h.cas = store
	h.casCacheChunks = cacheChunks
}

// CAS returns the attached content-addressed store (nil when disabled).
func (h *Hypervisor) CAS() *cas.Store { return h.cas }

// CASCacheStatsNow sums the per-device chunk-cache counters across the
// fleet.
func (h *Hypervisor) CASCacheStatsNow() cas.CacheStats {
	var st cas.CacheStats
	for _, d := range h.devs {
		cs := d.casCache.Stats()
		st.Hits += cs.Hits
		st.Misses += cs.Misses
		st.Evictions += cs.Evictions
		st.Resident += cs.Resident
	}
	return st
}

// casCacheRef returns the device's chunk cache, creating it on first use
// (nil when the hypervisor was configured without one).
func (d *Device) casCacheRef() *cas.Cache {
	if d.casCache == nil && d.h.casCacheChunks > 0 {
		d.casCache = cas.NewCache(d.h.casCacheChunks)
	}
	return d.casCache
}

// SealImage content-addresses the host file at path into the cas tier under
// name: every block is hashed, new chunks are pushed to the remote tier in
// one batched PUT, and blocks already sealed anywhere dedup against the
// existing chunks. The image file itself is untouched and stays usable.
func (d *Device) SealImage(p *sim.Proc, path, name string, uid uint32) (*cas.Manifest, error) {
	h := d.h
	if h.cas == nil {
		return nil, cas.ErrDisabled
	}
	f, err := d.HostFS.Open(p, path, uid, extfs.PermRead)
	if err != nil {
		return nil, err
	}
	bs := d.Ctl.P.BlockSize
	nb := (f.Size() + uint64(bs) - 1) / uint64(bs)
	blocks := make([][]byte, 0, nb)
	for i := uint64(0); i < nb; i++ {
		buf := make([]byte, bs)
		if _, err := f.ReadAt(p, buf, int64(i)*int64(bs)); err != nil && err != io.EOF {
			return nil, err
		}
		blocks = append(blocks, buf)
	}
	return h.cas.Seal(p, name, blocks)
}

// ForkImage clones the sealed manifest src onto this device as a
// metadata-only image at path, owned by uid: chunk references are taken in
// the store, a fully sparse backing file is created, and the path is bound
// to the fork's manifest so VFs exported over it run fetch-backed (every
// hole materializes its chunk on first touch). No chunk payload moves.
func (d *Device) ForkImage(p *sim.Proc, src, path string, uid uint32) error {
	h := d.h
	if h.cas == nil {
		return cas.ErrDisabled
	}
	if d.casBindings[path] != nil {
		return fmt.Errorf("hypervisor: %q already carries a cas fork", path)
	}
	// Per-device fork names keep refcounts honest: releasing one host's copy
	// must never free chunks other hosts still reference.
	dst := fmt.Sprintf("dev%d:%s", d.Idx, path)
	m, err := h.cas.Fork(p, src, dst)
	if err != nil {
		return err
	}
	if err := d.MkImage(p, path, uid, uint64(m.Blocks()), true); err != nil {
		_ = h.cas.Release(p, dst)
		return err
	}
	f, err := d.HostFS.Open(p, path, uid, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		_ = h.cas.Release(p, dst)
		return err
	}
	if d.casBindings == nil {
		d.casBindings = make(map[string]*casBinding)
	}
	d.casBindings[path] = &casBinding{name: dst, file: f}
	return nil
}

// ReleaseImage drops a forked image's chunk references and unbinds the
// path. The backing file keeps whatever was already materialized; holes that
// were never touched become unreadable through fetch-backed VFs (their
// misses fail), so destroy the VFs first.
func (d *Device) ReleaseImage(p *sim.Proc, path string) error {
	b := d.casBindings[path]
	if b == nil {
		return fmt.Errorf("hypervisor: %q carries no cas fork", path)
	}
	if err := d.h.cas.Release(p, b.name); err != nil {
		return err
	}
	delete(d.casBindings, path)
	return nil
}

// casManifestOf reports the manifest name bound to a device path ("" when
// the path is not a cas fork).
func (d *Device) casManifestOf(path string) string {
	if b := d.casBindings[path]; b != nil {
		return b.name
	}
	return ""
}

// materializeRange services one MissReasonFetch miss: for every missed
// block it resolves the manifest's chunk hash, serves the payload from the
// device's chunk cache or fetches it from the remote tier (paying the
// tier's cost model and fault sites), and writes it into the backing file —
// after which the block is an ordinary allocated extent. op labels the
// latency attribution rows ("read"/"write", matching the driver's vocabulary).
func (d *Device) materializeRange(p *sim.Proc, idx int, st *vfState, blk, n uint64, op string) error {
	h := d.h
	b := d.casBindings[st.path]
	if h.cas == nil || b == nil {
		return fmt.Errorf("hypervisor: VF %d path %q is not cas-backed", idx, st.path)
	}
	m := h.cas.Manifest(b.name)
	if m == nil {
		return fmt.Errorf("hypervisor: cas manifest %q released while VF %d still fetch-backed", b.name, idx)
	}
	// Materialization happens at most once per block: a block that already
	// has an extent was materialized by an earlier service (a retried
	// mid-range failure, or a concurrent handler acting on a stale
	// miss-pending snapshot) and the guest may have overwritten it since —
	// rewriting the sealed content over it would silently destroy guest
	// writes. Skipped blocks still resolve at the rewalk.
	runs, _, err := d.HostFS.AppendRuns(p, st.path, st.fetchRuns[:0])
	if err != nil {
		return err
	}
	st.fetchRuns = runs
	mapped := func(b uint64) bool {
		i := sort.Search(len(runs), func(i int) bool { return runs[i].Logical > b })
		return i > 0 && b < runs[i-1].End()
	}
	cache := d.casCacheRef()
	bs := uint64(d.Ctl.P.BlockSize)
	fn := idx + 1 // attribution rows are keyed by function index; 0 is the PF
	for i := blk; i < blk+n; i++ {
		if i >= uint64(len(m.Hashes)) {
			// Past the manifest's content (a partial trailing chunk range):
			// plain lazy allocation, zeros.
			return d.HostFS.AllocateRange(p, st.path, i, blk+n-i)
		}
		if mapped(i) {
			continue
		}
		hash := m.Hashes[i]
		data, ok := cache.Get(hash)
		if !ok {
			start := p.Now()
			fetched, err := h.cas.Fetch(p, hash)
			if err != nil {
				return err
			}
			if h.tel.Attrib != nil {
				// The remote round trip is fabric time from the tenant's view.
				h.tel.Attrib.AddSegment(fn, op, slo.SegFabricWait, p.Now()-start)
			}
			cache.Put(hash, fetched)
			data = fetched
		}
		// Pin across the file write: the chunk bytes are the DMA source and
		// must not be evicted mid-materialization.
		cache.Pin(hash)
		wstart := p.Now()
		_, werr := b.file.WriteAt(p, data, int64(i*bs))
		cache.Unpin(hash)
		if werr != nil {
			return werr
		}
		if h.tel.Attrib != nil {
			h.tel.Attrib.AddSegment(fn, op, slo.SegMedium, p.Now()-wstart)
		}
		h.CASMaterializations++
	}
	return nil
}

// ReleaseSealed drops a sealed manifest's own references (the golden master
// itself). Forks keep their chunks alive through their own references.
func (h *Hypervisor) ReleaseSealed(p *sim.Proc, name string) error {
	if h.cas == nil {
		return cas.ErrDisabled
	}
	return h.cas.Release(p, name)
}

// programCASFetch arms the fetch-backed bit on a freshly created VF whose
// path is bound to a cas manifest. Called from CreateVF; the register write
// happens only for bound paths, so platforms without the cas tier keep a
// bit-identical MMIO schedule.
func (d *Device) programCASFetch(p *sim.Proc, idx int, path string) {
	if d.casBindings[path] == nil {
		return
	}
	d.h.mmioW(p, d.mgmtAddr(idx)+core.MgmtFetch, 1)
}
