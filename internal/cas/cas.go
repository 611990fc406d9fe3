// Package cas is the content-addressed block tier: a refcounted chunk store
// (hash → block) shared by every device in the fleet, backed by a simulated
// remote object tier with its own latency/bandwidth cost model and fault
// domain, and fronted by per-device LRU caches (cache.go).
//
// The store is the dedup and golden-image layer under the NeSC fleet:
// sealing an image content-addresses its blocks into the store (identical
// blocks across images collapse into one refcounted chunk), and forking a
// sealed image onto another device is a metadata-only manifest copy whose
// chunks materialize lazily through the device's miss path on first touch.
//
// Durability follows the extfs refcount discipline: every mutating operation
// (seal, fork, release) runs as one journaled transaction — begin record,
// one record per chunk put / refcount delta / manifest write, commit record.
// The journal is the store's durable medium; Replay applies only complete
// transactions, so a crash sweep over every journal prefix sees each
// operation all-or-nothing, never torn (crash_test.go mirrors
// internal/extfs/crash_test.go over this log).
//
// A nil *Store is a valid disabled tier: every method no-ops or errors
// without touching the engine, so simulations that never enable cas pay
// nothing and replay bit-identically to builds that predate it.
package cas

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"nesc/internal/fault"
	"nesc/internal/sim"
)

// Hash is a chunk's content address.
type Hash [sha256.Size]byte

// HashOf content-addresses one block.
func HashOf(data []byte) Hash { return sha256.Sum256(data) }

// maxRefs guards the refcount against overflow; far beyond any realistic
// fan-out, but an unguarded counter is how silent corruption starts.
const maxRefs = 1<<31 - 1

// Errors.
var (
	// ErrIntegrity reports a chunk whose stored bytes no longer match its
	// content address — hash-collision-shaped corruption the fetch ladder
	// refuses to serve.
	ErrIntegrity = errors.New("cas: chunk content does not match its hash")
	// ErrNotSealed reports a manifest lookup for a name never sealed.
	ErrNotSealed = errors.New("cas: no manifest with that name")
	// ErrExists reports sealing or forking onto a name already bound.
	ErrExists = errors.New("cas: manifest name already exists")
	// ErrDisabled reports an operation on a nil (disabled) store.
	ErrDisabled = errors.New("cas: tier disabled")
)

// Params is the remote tier's cost model.
type Params struct {
	// BlockSize is the chunk size in bytes (one device block).
	BlockSize int
	// RemoteLatency is the base round-trip of one remote-tier operation.
	RemoteLatency sim.Time
	// RemoteBandwidth is the tier's payload bandwidth in bytes/ns.
	RemoteBandwidth float64
	// PutOverhead is the per-chunk pipeline cost inside a batched seal PUT.
	PutOverhead sim.Time
}

// fetchRetryMax bounds the remote retry ladder (transient remote faults and
// integrity re-reads).
const fetchRetryMax = 3

// DefaultParams returns the calibrated remote tier: a disaggregated object
// store an order of magnitude slower than the local medium.
func DefaultParams(blockSize int) Params {
	return Params{
		BlockSize:       blockSize,
		RemoteLatency:   40 * sim.Microsecond,
		RemoteBandwidth: 2.0, // 2 GB/s
		PutOverhead:     200 * sim.Nanosecond,
	}
}

// Manifest is one sealed image: the ordered chunk-hash list that reproduces
// its content, plus a generation for staleness checks.
type Manifest struct {
	Name   string
	Gen    uint64
	Hashes []Hash
}

// Blocks reports the manifest's length in blocks.
func (m *Manifest) Blocks() int64 { return int64(len(m.Hashes)) }

// chunk is one refcounted content-addressed block.
type chunk struct {
	data []byte
	refs int64
}

// recKind discriminates journal records.
type recKind uint8

const (
	recBegin recKind = iota
	recPutChunk
	recAddRef
	recDecRef
	recPutManifest
	recDelManifest
	recCommit
)

// rec is one journal record. The journal is the store's durable medium:
// state is exactly what Replay derives from it.
type rec struct {
	kind   recKind
	hash   Hash
	n      int64
	name   string
	gen    uint64
	hashes []Hash
	data   []byte
}

// Stats is the store's counter snapshot.
type Stats struct {
	Seals, Forks, Releases int64
	// DedupHits counts sealed blocks that matched an existing chunk.
	DedupHits int64
	// ChunksLive / BlocksLogical drive the dedup ratio: logical blocks
	// across all manifests vs unique chunks actually stored.
	ChunksLive    int64
	BlocksLogical int64
	// Remote-tier traffic: RemoteFetches and RemotePuts count round trips,
	// FetchFails the chunks whose fetch exhausted the retry ladder.
	RemoteFetches   int64
	RemoteFetchTime sim.Time
	RemotePuts      int64
	RemoteRetries   int64
	FetchFails      int64
	// HashMismatches counts fetches whose payload failed content
	// verification (corruption shaped like a hash collision).
	HashMismatches int64
}

// Store is the fleet-shared content-addressed tier. Not safe for concurrent
// use outside the simulation engine's single-threaded hand-off.
type Store struct {
	P   Params
	Inj *fault.Injector

	log       []rec
	chunks    map[Hash]*chunk
	manifests map[string]*Manifest

	stats Stats
}

// NewStore builds an empty store over the given remote-tier model.
func NewStore(p Params, inj *fault.Injector) *Store {
	if p.BlockSize <= 0 {
		p.BlockSize = 1024
	}
	if p.RemoteLatency <= 0 {
		p.RemoteLatency = DefaultParams(p.BlockSize).RemoteLatency
	}
	if p.RemoteBandwidth <= 0 {
		p.RemoteBandwidth = DefaultParams(p.BlockSize).RemoteBandwidth
	}
	if p.PutOverhead <= 0 {
		p.PutOverhead = DefaultParams(p.BlockSize).PutOverhead
	}
	return &Store{
		P:         p,
		Inj:       inj,
		chunks:    make(map[Hash]*chunk),
		manifests: make(map[string]*Manifest),
	}
}

// Enabled reports whether the tier exists.
func (s *Store) Enabled() bool { return s != nil }

// Stats snapshots the counters (zero value on nil).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := s.stats
	st.ChunksLive = int64(len(s.chunks))
	var logical int64
	for _, m := range s.manifests {
		logical += m.Blocks()
	}
	st.BlocksLogical = logical
	return st
}

// DedupRatio reports logical blocks per stored chunk (1.0 with no sharing,
// 0 when empty).
func (s *Store) DedupRatio() float64 {
	st := s.Stats()
	if st.ChunksLive == 0 {
		return 0
	}
	return float64(st.BlocksLogical) / float64(st.ChunksLive)
}

// Manifest returns the named manifest, or nil.
func (s *Store) Manifest(name string) *Manifest {
	if s == nil {
		return nil
	}
	return s.manifests[name]
}

// Log returns a copy of the journal for crash sweeps.
func (s *Store) Log() []rec {
	if s == nil {
		return nil
	}
	return append([]rec(nil), s.log...)
}

// apply folds one record into the live maps. Shared by runtime commit and
// Replay so the durable journal and the live state can never disagree.
func apply(chunks map[Hash]*chunk, manifests map[string]*Manifest, r rec) {
	switch r.kind {
	case recPutChunk:
		if _, ok := chunks[r.hash]; !ok {
			chunks[r.hash] = &chunk{data: append([]byte(nil), r.data...)}
		}
	case recAddRef:
		chunks[r.hash].refs += r.n
	case recDecRef:
		c := chunks[r.hash]
		c.refs -= r.n
		if c.refs <= 0 {
			delete(chunks, r.hash)
		}
	case recPutManifest:
		manifests[r.name] = &Manifest{Name: r.name, Gen: r.gen, Hashes: append([]Hash(nil), r.hashes...)}
	case recDelManifest:
		delete(manifests, r.name)
	}
}

// commit journals one transaction (begin, records, commit) and applies it.
func (s *Store) commit(recs []rec) {
	s.log = append(s.log, rec{kind: recBegin})
	for _, r := range recs {
		s.log = append(s.log, r)
		apply(s.chunks, s.manifests, r)
	}
	s.log = append(s.log, rec{kind: recCommit})
}

// Replay rebuilds store state from a journal prefix, applying only complete
// (committed) transactions — the remount path of the crash sweep.
func Replay(log []rec) *Store {
	s := NewStore(Params{}, nil)
	var tx []rec
	inTx := false
	for _, r := range log {
		switch r.kind {
		case recBegin:
			tx, inTx = tx[:0], true
		case recCommit:
			for _, tr := range tx {
				apply(s.chunks, s.manifests, tr)
			}
			tx, inTx = tx[:0], false
		default:
			if inTx {
				tx = append(tx, r)
			}
		}
	}
	return s
}

// Check cross-verifies refcounts against the manifests, the way extfs's
// fsck cross-checks its refcount table: every manifest hash must resolve to
// a live chunk, every chunk's refcount must equal its manifest references,
// and every stored chunk must still match its content address.
func (s *Store) Check() error {
	if s == nil {
		return nil
	}
	want := make(map[Hash]int64, len(s.chunks))
	names := make([]string, 0, len(s.manifests))
	for n := range s.manifests {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for i, h := range s.manifests[n].Hashes {
			if _, ok := s.chunks[h]; !ok {
				return fmt.Errorf("cas: manifest %q block %d references a missing chunk", n, i)
			}
			want[h]++
		}
	}
	for h, c := range s.chunks {
		if c.refs != want[h] {
			return fmt.Errorf("cas: chunk %x refcount %d, %d manifest references", h[:4], c.refs, want[h])
		}
		if HashOf(c.data) != h {
			return fmt.Errorf("cas: chunk %x content does not match its address", h[:4])
		}
	}
	for h, n := range want {
		if _, ok := s.chunks[h]; !ok && n > 0 {
			return fmt.Errorf("cas: %d dangling references to missing chunk %x", n, h[:4])
		}
	}
	return nil
}

// Seal content-addresses an image into the store under name: each block is
// hashed, new chunks are PUT to the remote tier (batched cost model),
// existing chunks take a refcount bump (the dedup hit), and the ordered
// hash list becomes the image's manifest — all as one journaled transaction.
func (s *Store) Seal(p *sim.Proc, name string, blocks [][]byte) (*Manifest, error) {
	if s == nil {
		return nil, ErrDisabled
	}
	if _, ok := s.manifests[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	hashes := make([]Hash, len(blocks))
	refs := make(map[Hash]int64, len(blocks))
	var recs []rec
	var newChunks int
	var newBytes int64
	for i, b := range blocks {
		h := HashOf(b)
		hashes[i] = h
		_, live := s.chunks[h]
		if !live && refs[h] == 0 {
			recs = append(recs, rec{kind: recPutChunk, hash: h, data: b})
			newChunks++
			newBytes += int64(len(b))
		} else {
			s.stats.DedupHits++
		}
		refs[h]++
	}
	// Refcount deltas in first-appearance order (deterministic, not map
	// order), each guarded against overflow before anything commits.
	seen := make(map[Hash]bool, len(refs))
	for _, h := range hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		base := int64(0)
		if c, ok := s.chunks[h]; ok {
			base = c.refs
		}
		if base+refs[h] > maxRefs {
			return nil, fmt.Errorf("cas: refcount overflow on chunk %x sealing %s", h[:4], name)
		}
		recs = append(recs, rec{kind: recAddRef, hash: h, n: refs[h]})
	}
	recs = append(recs, rec{kind: recPutManifest, name: name, gen: 1, hashes: hashes})
	s.remotePut(p, newChunks, newBytes)
	s.commit(recs)
	s.stats.Seals++
	return s.manifests[name], nil
}

// Fork clones manifest src under dst — a metadata-only copy: one refcount
// bump per referenced chunk and a manifest write, no data movement. The
// clone's chunks materialize later through Fetch on first access.
func (s *Store) Fork(p *sim.Proc, src, dst string) (*Manifest, error) {
	if s == nil {
		return nil, ErrDisabled
	}
	m, ok := s.manifests[src]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotSealed, src)
	}
	if _, ok := s.manifests[dst]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, dst)
	}
	var recs []rec
	seen := make(map[Hash]int64, len(m.Hashes))
	for _, h := range m.Hashes {
		seen[h]++
	}
	for _, h := range m.Hashes {
		n, pending := seen[h]
		if !pending {
			continue
		}
		delete(seen, h)
		if s.chunks[h].refs+n > maxRefs {
			return nil, fmt.Errorf("cas: refcount overflow on chunk %x forking %s", h[:4], dst)
		}
		recs = append(recs, rec{kind: recAddRef, hash: h, n: n})
	}
	recs = append(recs, rec{kind: recPutManifest, name: dst, gen: m.Gen + 1, hashes: m.Hashes})
	// Metadata-only PUT: one round trip, no payload.
	s.remotePut(p, 0, 0)
	s.commit(recs)
	s.stats.Forks++
	return s.manifests[dst], nil
}

// Release drops manifest name, decrementing every chunk it referenced;
// chunks reaching zero references are freed. Underflow — releasing more
// references than exist — is a refcount bug and fails before commit.
func (s *Store) Release(p *sim.Proc, name string) error {
	if s == nil {
		return ErrDisabled
	}
	m, ok := s.manifests[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotSealed, name)
	}
	var recs []rec
	seen := make(map[Hash]int64, len(m.Hashes))
	for _, h := range m.Hashes {
		seen[h]++
	}
	for _, h := range m.Hashes {
		n, pending := seen[h]
		if !pending {
			continue
		}
		delete(seen, h)
		c, live := s.chunks[h]
		if !live || c.refs < n {
			return fmt.Errorf("cas: refcount underflow on chunk %x releasing %s", h[:4], name)
		}
		recs = append(recs, rec{kind: recDecRef, hash: h, n: n})
	}
	recs = append(recs, rec{kind: recDelManifest, name: name})
	s.remotePut(p, 0, 0)
	s.commit(recs)
	s.stats.Releases++
	return nil
}

// CorruptChunk flips a byte of a stored chunk's payload without touching its
// address — the hash-collision-shaped corruption the fetch ladder must
// catch. Test hook; returns false when the chunk does not exist.
func (s *Store) CorruptChunk(h Hash) bool {
	if s == nil {
		return false
	}
	c, ok := s.chunks[h]
	if !ok {
		return false
	}
	c.data[0] ^= 0x80
	return true
}
