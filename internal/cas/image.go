package cas

import (
	"fmt"
	"io"

	"nesc/internal/extfs"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/telemetry"
)

// Content-addressed image management: sealing a host image into the store,
// forking a sealed manifest onto any fleet device as a metadata-only copy,
// and materializing forked chunks on first touch. The hypervisor knows
// nothing of this tier: a fork binds its path to the tier as the path's
// hypervisor.FetchSource, the VFs exported over it run fetch-backed, and the
// miss handler calls Materialize for every hole the guest touches.
//
// The flow mirrors golden-image provisioning: one host seals a prepared
// image (content-addressing every block, deduplicating against everything
// already sealed), then any number of hosts fork it. A fork writes no data —
// it takes chunk references and creates a fully sparse backing file — so the
// guest boots immediately; each block's content is fetched from the store
// (or the device's local chunk cache) the first time the guest touches it.

// Tier is the store as a fleet sees it: the fleet-shared Store (it models a
// remote object tier all hosts reach) plus, per device, the forks bound there
// and an LRU chunk cache.
type Tier struct {
	// Store is the shared chunk store; nil keeps the tier disabled.
	Store *Store
	// Materializations counts chunks written into backing files by Materialize.
	Materializations int64

	cacheChunks int
	tel         telemetry.Sinks
	forks       map[forkKey]*fork
	caches      map[*hypervisor.Device]*Cache
}

type forkKey struct {
	dev  *hypervisor.Device
	path string
}

// fork ties one device-local backing file to its manifest. The file handle is
// opened at fork time with the owning tenant's identity, and every call
// Materialize makes on the file goes through it, so the miss handler never
// resolves the path.
type fork struct {
	name string // manifest name in the store
	file *extfs.File
}

// NewTier puts store in front of a fleet. Each device gets its own LRU chunk
// cache of cacheChunks entries (0 = no cache: every materialization pays a
// remote fetch); tel is credited the time tenants wait on materialization.
// A nil store keeps the tier disabled.
func NewTier(store *Store, cacheChunks int, tel telemetry.Sinks) *Tier {
	return &Tier{Store: store, cacheChunks: cacheChunks, tel: tel,
		forks: make(map[forkKey]*fork), caches: make(map[*hypervisor.Device]*Cache)}
}

// cache returns d's chunk cache, creating it on first use (nil when the tier
// was configured without one).
func (t *Tier) cache(d *hypervisor.Device) *Cache {
	c := t.caches[d]
	if c == nil && t.cacheChunks > 0 {
		c = NewCache(t.cacheChunks)
		t.caches[d] = c
	}
	return c
}

// CacheStats sums the per-device chunk-cache counters across the fleet.
func (t *Tier) CacheStats() CacheStats {
	var st CacheStats
	for _, c := range t.caches {
		cs := c.Stats()
		st.Hits += cs.Hits
		st.Misses += cs.Misses
		st.Evictions += cs.Evictions
		st.Resident += cs.Resident
	}
	return st
}

// SealImage content-addresses the host file at path on d into the store under
// name: every block is hashed, new chunks are pushed to the remote tier in
// one batched PUT, and blocks already sealed anywhere dedup against the
// existing chunks. The image file itself is untouched and stays usable.
func (t *Tier) SealImage(p *sim.Proc, d *hypervisor.Device, path, name string, uid uint32) (*Manifest, error) {
	if t.Store == nil {
		return nil, ErrDisabled
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
	return t.Store.Seal(p, name, blocks)
}

// ForkImage clones the sealed manifest src onto d as a metadata-only image at
// path, owned by uid: chunk references are taken in the store, a fully sparse
// backing file is created, and the path is bound to the tier so VFs exported
// over it run fetch-backed (every hole materializes its chunk on first
// touch). No chunk payload moves. A fork that fails leaves neither references
// nor a file behind.
func (t *Tier) ForkImage(p *sim.Proc, d *hypervisor.Device, src, path string, uid uint32) error {
	if t.forks[forkKey{d, path}] != nil {
		return fmt.Errorf("cas: %q already carries a fork", path)
	}
	// Per-device fork names keep refcounts honest: releasing one host's copy
	// must never free chunks other hosts still reference.
	dst := fmt.Sprintf("dev%d:%s", d.Idx, path)
	m, err := t.Store.Fork(p, src, dst)
	if err != nil {
		return err
	}
	if _, err := d.MkImage(p, path, uid, uint64(m.Blocks()), true); err != nil {
		_ = t.Store.Release(p, dst) // the image's error is the one to report
		return err
	}
	f, err := d.HostFS.Open(p, path, uid, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		_ = t.Store.Release(p, dst) // as above
		_ = d.HostFS.Remove(p, path, uid)
		return err
	}
	t.forks[forkKey{d, path}] = &fork{name: dst, file: f}
	d.Fetch[path] = t
	return nil
}

// ReleaseImage drops a forked image's chunk references and unbinds the
// path. The backing file keeps whatever was already materialized; holes that
// were never touched become unreadable through fetch-backed VFs (their
// misses fail), so destroy the VFs first.
func (t *Tier) ReleaseImage(p *sim.Proc, d *hypervisor.Device, path string) error {
	b := t.forks[forkKey{d, path}]
	if b == nil {
		return fmt.Errorf("cas: %q carries no fork", path)
	}
	if err := t.Store.Release(p, b.name); err != nil {
		return err
	}
	delete(t.forks, forkKey{d, path})
	delete(d.Fetch, path)
	return nil
}

// Materialize implements hypervisor.FetchSource: it gathers the payload of
// every missed block the manifest covers — from the device's chunk cache, or
// fetched from the remote tier in one round trip (paying the tier's cost
// model and fault sites), by this miss or one it waits for — and then writes
// them into the backing file's holes as one host-filesystem transaction, after
// which the blocks are ordinary allocated extents. Blocks past the manifest's
// content (a partial trailing chunk range) are lazily allocated, zeros, in the
// same transaction.
// op labels the latency attribution rows ("read"/"write", as the driver).
func (t *Tier) Materialize(p *sim.Proc, d *hypervisor.Device, vf int, path string, blk, n uint64, op string) error {
	b := t.forks[forkKey{d, path}]
	if b == nil {
		return fmt.Errorf("cas: VF %d path %q carries no fork", vf, path)
	}
	m := t.Store.Manifest(b.name)
	if m == nil {
		return fmt.Errorf("cas: manifest %q released while VF %d still fetch-backed", b.name, vf)
	}
	cache := t.cache(d)
	fn := vf + 1 // attribution rows are keyed by function index; 0 is the PF
	last := min(blk+n, uint64(len(m.Hashes)))
	start := p.Now()
	data, err := cache.Fetch(p, m.Hashes[min(blk, last):last], func(hs []Hash) ([][]byte, error) { return t.Store.Fetch(p, hs) })
	if err != nil {
		return err
	}
	if waited := p.Now() - start; waited > 0 { // not all hits: fetched, or another miss's fetch
		t.tel.ChunkFetched(fn, op, waited)
	}
	// Materialization happens at most once per block: a block that already
	// has an extent was materialized by an earlier service (a retried
	// mid-range failure, or a concurrent handler acting on a stale
	// miss-pending snapshot) and the guest may have overwritten it since —
	// rewriting the sealed content over it would silently destroy guest
	// writes. Fill reads the file's map inside its transaction, after every
	// park above, and skips such a block; it still resolves at the rewalk.
	start = p.Now()
	filled, err := b.file.Fill(p, blk, n, data)
	if err != nil {
		return err
	}
	if filled > 0 {
		t.tel.ChunkWritten(fn, op, p.Now()-start)
		t.Materializations += int64(filled)
	}
	return nil
}
