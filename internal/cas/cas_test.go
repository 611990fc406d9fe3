package cas

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nesc/internal/fault"
	"nesc/internal/sim"
)

// block builds a 1 KB test block whose content is derived from tag.
func block(tag byte) []byte { return bytes.Repeat([]byte{tag}, 1024) }

// blocksFrom builds an image from per-block tags.
func blocksFrom(tags ...byte) [][]byte {
	out := make([][]byte, len(tags))
	for i, t := range tags {
		out[i] = block(t)
	}
	return out
}

func mustSeal(t *testing.T, s *Store, name string, tags ...byte) *Manifest {
	t.Helper()
	m, err := s.Seal(nil, name, blocksFrom(tags...))
	if err != nil {
		t.Fatalf("seal %s: %v", name, err)
	}
	return m
}

func TestSealDedupAndRatio(t *testing.T) {
	s := NewStore(Params{BlockSize: 1024}, nil)
	mustSeal(t, s, "a", 1, 2, 3, 1) // block 1 appears twice: one intra-image dup
	mustSeal(t, s, "b", 1, 2, 4, 4) // two cross-image dups, one intra-image dup
	st := s.Stats()
	if st.ChunksLive != 4 { // blocks 1,2,3,4
		t.Errorf("ChunksLive = %d, want 4", st.ChunksLive)
	}
	if st.BlocksLogical != 8 {
		t.Errorf("BlocksLogical = %d, want 8", st.BlocksLogical)
	}
	if st.DedupHits != 4 {
		t.Errorf("DedupHits = %d, want 4", st.DedupHits)
	}
	if r := s.DedupRatio(); r != 2.0 {
		t.Errorf("DedupRatio = %v, want 2.0", r)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if _, err := s.Seal(nil, "a", blocksFrom(9)); !errors.Is(err, ErrExists) {
		t.Errorf("re-seal of existing name: got %v, want ErrExists", err)
	}
}

func TestForkIsMetadataOnlyAndRelease(t *testing.T) {
	s := NewStore(Params{BlockSize: 1024}, nil)
	mustSeal(t, s, "golden", 1, 2, 3)
	preFetches := s.Stats().RemoteFetches
	m, err := s.Fork(nil, "golden", "clone")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if m.Blocks() != 3 || s.Stats().ChunksLive != 3 {
		t.Errorf("fork changed chunk population: %+v", s.Stats())
	}
	if got := s.Stats().RemoteFetches; got != preFetches {
		t.Errorf("fork moved data: %d remote fetches", got-preFetches)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check after fork: %v", err)
	}
	// Release the original; the clone keeps every chunk alive.
	if err := s.Release(nil, "golden"); err != nil {
		t.Fatalf("release golden: %v", err)
	}
	if st := s.Stats(); st.ChunksLive != 3 {
		t.Errorf("chunks freed while clone still references them: %+v", st)
	}
	if err := s.Release(nil, "clone"); err != nil {
		t.Fatalf("release clone: %v", err)
	}
	if st := s.Stats(); st.ChunksLive != 0 {
		t.Errorf("ChunksLive = %d after final release, want 0", st.ChunksLive)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check after releases: %v", err)
	}
	if _, err := s.Fork(nil, "golden", "c2"); !errors.Is(err, ErrNotSealed) {
		t.Errorf("fork of released manifest: got %v, want ErrNotSealed", err)
	}
}

func TestRefcountGuards(t *testing.T) {
	s := NewStore(Params{BlockSize: 1024}, nil)
	mustSeal(t, s, "img", 7)
	h := HashOf(block(7))

	// Underflow: damage the refcount below the manifest population, then
	// release — the guard must fail before commit, leaving state untouched.
	s.chunks[h].refs = 0
	if err := s.Release(nil, "img"); err == nil {
		t.Fatal("release with damaged refcount succeeded; underflow guard missing")
	}
	if s.Manifest("img") == nil {
		t.Error("failed release mutated state (manifest gone)")
	}
	s.chunks[h].refs = 1 // repair

	// Overflow: push the refcount to the cap; the next fork must refuse.
	s.chunks[h].refs = maxRefs
	if _, err := s.Fork(nil, "img", "over"); err == nil {
		t.Fatal("fork past maxRefs succeeded; overflow guard missing")
	}
	if s.Manifest("over") != nil {
		t.Error("failed fork left a manifest behind")
	}
	s.chunks[h].refs = 1
	if _, err := s.Seal(nil, "img2", blocksFrom(7, 7)); err != nil {
		t.Fatalf("seal after guard exercises: %v", err)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestFetchIntegrityLadder(t *testing.T) {
	s := NewStore(Params{BlockSize: 1024}, nil)
	mustSeal(t, s, "img", 5)
	h := HashOf(block(5))
	got, err := s.Fetch(nil, h)
	if err != nil || !bytes.Equal(got, block(5)) {
		t.Fatalf("clean fetch: %v", err)
	}
	if !s.CorruptChunk(h) {
		t.Fatal("CorruptChunk missed a live chunk")
	}
	// Corruption shaped like a hash collision: the payload no longer matches
	// its address. The ladder must retry, never serve it, and surface
	// ErrIntegrity once the retries exhaust.
	if _, err := s.Fetch(nil, h); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("fetch of corrupt chunk: got %v, want ErrIntegrity", err)
	}
	st := s.Stats()
	if st.HashMismatches == 0 {
		t.Error("no hash mismatches counted")
	}
	if st.FetchFails != 1 {
		t.Errorf("FetchFails = %d, want 1", st.FetchFails)
	}
	if st.RemoteRetries == 0 {
		t.Error("integrity failure did not walk the retry ladder")
	}
}

func TestFetchRemoteFaultsAndCostModel(t *testing.T) {
	plan := fault.Plan{Seed: 42}
	plan.Sites[fault.RemoteFetch] = fault.SiteParams{OneShot: []int64{1}, DelayProb: 1, Delay: 5 * sim.Microsecond}
	inj := fault.NewInjector(plan)
	s := NewStore(Params{BlockSize: 1024, RemoteLatency: 40 * sim.Microsecond, RemoteBandwidth: 2.0}, inj)
	mustSeal(t, s, "img", 9)
	h := HashOf(block(9))

	eng := sim.NewEngine()
	var elapsed sim.Time
	var fetchErr error
	eng.Go("fetch", func(p *sim.Proc) {
		start := p.Now()
		_, fetchErr = s.Fetch(p, h)
		elapsed = p.Now() - start
	})
	eng.Run()
	eng.Shutdown()
	if fetchErr != nil {
		t.Fatalf("fetch under one-shot fault: %v (retry ladder should absorb it)", fetchErr)
	}
	// Two attempts (one faulted), each 40us latency + 512ns payload + 5us
	// injected delay.
	per := 40*sim.Microsecond + sim.Time(float64(1024)/2.0) + 5*sim.Microsecond
	if want := 2 * per; elapsed != want {
		t.Errorf("fetch elapsed %v, want %v", elapsed, want)
	}
	st := s.Stats()
	if st.RemoteFetches != 2 || st.RemoteRetries != 1 {
		t.Errorf("fetches=%d retries=%d, want 2/1", st.RemoteFetches, st.RemoteRetries)
	}
	if st.RemoteFetchTime != elapsed {
		t.Errorf("RemoteFetchTime = %v, elapsed %v", st.RemoteFetchTime, elapsed)
	}
}

func TestNilStoreAndCacheAreSafe(t *testing.T) {
	var s *Store
	if s.Enabled() {
		t.Error("nil store reports enabled")
	}
	if _, err := s.Seal(nil, "x", nil); !errors.Is(err, ErrDisabled) {
		t.Errorf("nil seal: %v", err)
	}
	if _, err := s.Fork(nil, "a", "b"); !errors.Is(err, ErrDisabled) {
		t.Errorf("nil fork: %v", err)
	}
	if err := s.Release(nil, "a"); !errors.Is(err, ErrDisabled) {
		t.Errorf("nil release: %v", err)
	}
	if _, err := s.Fetch(nil, Hash{}); !errors.Is(err, ErrDisabled) {
		t.Errorf("nil fetch: %v", err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil stats: %+v", st)
	}
	var c *Cache
	if _, ok := c.Get(Hash{}); ok {
		t.Error("nil cache hit")
	}
	c.Put(Hash{}, nil)
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(3)
	h := func(i byte) Hash { return HashOf(block(i)) }
	c.Put(h(1), block(1))
	c.Put(h(2), block(2))
	c.Put(h(3), block(3))
	// Touch 1: LRU order is now 2, 3, 1 (oldest first).
	if _, ok := c.Get(h(1)); !ok {
		t.Fatal("resident chunk missed")
	}
	c.Put(h(4), block(4)) // evicts 2
	if _, ok := c.Get(h(2)); ok {
		t.Error("LRU victim 2 still resident")
	}
	c.Put(h(5), block(5)) // evicts 3
	if _, ok := c.Get(h(3)); ok {
		t.Error("LRU victim 3 still resident")
	}
	for _, want := range []byte{1, 4, 5} {
		if got, ok := c.Get(h(want)); !ok || !bytes.Equal(got, block(want)) {
			t.Errorf("chunk %d should be resident and intact", want)
		}
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Resident != 3 {
		t.Errorf("evictions=%d resident=%d, want 2/3", st.Evictions, st.Resident)
	}
}

func TestStoreDeterminism(t *testing.T) {
	run := func() (Stats, sim.Time) {
		plan := fault.Plan{Seed: 99}
		plan.Sites[fault.RemoteFetch] = fault.SiteParams{Prob: 0.2, DelayProb: 0.3, Delay: 3 * sim.Microsecond}
		plan.Sites[fault.RemoteStore] = fault.SiteParams{Prob: 0.1}
		s := NewStore(Params{BlockSize: 1024}, fault.NewInjector(plan))
		eng := sim.NewEngine()
		var end sim.Time
		eng.Go("churn", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("img%d", i)
				if _, err := s.Seal(p, name, blocksFrom(byte(i), byte(i%3), byte(i%5))); err != nil {
					t.Errorf("seal %s: %v", name, err)
				}
				if _, err := s.Fork(p, name, name+".fork"); err != nil {
					t.Errorf("fork %s: %v", name, err)
				}
				for _, h := range s.Manifest(name).Hashes {
					s.Fetch(p, h)
				}
				if i%2 == 1 {
					if err := s.Release(p, name+".fork"); err != nil {
						t.Errorf("release: %v", err)
					}
				}
			}
			end = p.Now()
		})
		eng.Run()
		eng.Shutdown()
		if err := s.Check(); err != nil {
			t.Fatalf("Check: %v", err)
		}
		return s.Stats(), end
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Errorf("same-seed churn diverged:\nA: %+v @ %v\nB: %+v @ %v", s1, t1, s2, t2)
	}
}
