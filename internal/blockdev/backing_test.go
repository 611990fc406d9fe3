package blockdev

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// flatStore is the store as it was when its block space was one slice, kept
// as the reference the chunked backing is held to.
type flatStore struct {
	bs     int
	data   []byte
	guards []uint32
	log    []writeRecord
}

func newFlatStore(bs int, blocks int64) *flatStore {
	f := &flatStore{bs: bs, data: make([]byte, int64(bs)*blocks), guards: make([]uint32, blocks)}
	for i := range f.guards {
		f.guards[i] = BlockGuard(f.data[:bs])
	}
	return f
}

func (f *flatStore) write(lba int64, p []byte) {
	for i := 0; i*f.bs < len(p); i++ {
		b := lba + int64(i)
		f.log = append(f.log, writeRecord{lba: b, data: slices.Clone(f.data[b*int64(f.bs):][:f.bs]), guard: f.guards[b]})
		f.guards[b] = BlockGuard(p[i*f.bs:][:f.bs])
	}
	copy(f.data[lba*int64(f.bs):], p)
}

func (f *flatStore) rollback(n int) {
	for ; n > 0 && len(f.log) > 0; n-- {
		rec := f.log[len(f.log)-1]
		f.log = f.log[:len(f.log)-1]
		copy(f.data[rec.lba*int64(f.bs):], rec.data)
		f.guards[rec.lba] = rec.guard
	}
}

// TestChunkedStoreMatchesFlatStore drives a Store with the write log on and
// the flat reference through the same seeded writes (within a chunk, across
// chunk boundaries, into the short last chunk), reads and rollbacks, on
// geometries where chunks are many, one and not a whole number.
func TestChunkedStoreMatchesFlatStore(t *testing.T) {
	geometries := []struct {
		bs     int
		blocks int64
	}{
		{1024, 1000}, // four chunks, the last one 232 blocks
		{512, 513},   // two chunks, the last one a single block
		{4096, 40},   // one short chunk
	}
	for _, g := range geometries {
		for seed := int64(1); seed <= 20; seed++ {
			s, f := NewStore(g.bs, g.blocks), newFlatStore(g.bs, g.blocks)
			s.EnableWriteLog()
			rng := rand.New(rand.NewSource(seed))
			maxBlocks := min(g.blocks, 2<<s.chunkShift+3)
			buf, want := make([]byte, int(maxBlocks)*g.bs), make([]byte, int(maxBlocks)*g.bs)
			for step := 0; step < 300; step++ {
				n := 1 + rng.Int63n(maxBlocks)
				if rng.Intn(4) > 0 {
					n = 1 + rng.Int63n(min(maxBlocks, 4))
				}
				lba := rng.Int63n(g.blocks - n + 1)
				p := buf[:int(n)*g.bs]
				switch r := rng.Intn(10); {
				case r < 5:
					rng.Read(p)
					if err := s.WriteBlocks(lba, p); err != nil {
						t.Fatal(err)
					}
					f.write(lba, p)
				case r < 6:
					k := rng.Intn(20)
					s.Rollback(k)
					f.rollback(k)
				default:
					if err := s.ReadBlocks(lba, p); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(p, f.data[lba*int64(g.bs):][:len(p)]) {
						t.Fatalf("bs %d seed %d step %d: ReadBlocks(%d, %d blocks) differs from the flat store", g.bs, seed, step, lba, n)
					}
				}
				if s.WriteLogLen() != len(f.log) {
					t.Fatalf("bs %d seed %d step %d: write log holds %d records, the flat store's %d", g.bs, seed, step, s.WriteLogLen(), len(f.log))
				}
			}
			// Undo everything: the store is all zeros again, chunks it made and all.
			for _, k := range []int{len(f.log) / 2, len(f.log)} {
				s.Rollback(k)
				f.rollback(k)
				for lba := int64(0); lba < g.blocks; lba++ {
					if err := s.ReadBlocks(lba, want[:g.bs]); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want[:g.bs], f.data[lba*int64(g.bs):][:g.bs]) || s.Guard(lba) != f.guards[lba] {
						t.Fatalf("bs %d seed %d: block %d differs from the flat store after rolling back %d writes", g.bs, seed, lba, k)
					}
				}
				if bad := s.VerifyGuards(); len(bad) != 0 {
					t.Fatalf("bs %d seed %d: VerifyGuards reports %v on an undamaged store", g.bs, seed, bad)
				}
			}
		}
	}
}

func TestSparseStoreContract(t *testing.T) {
	s := NewStore(1024, 1000) // chunks of 256 blocks; the last holds 232
	backed := func() (n int) {
		for _, c := range s.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	p := bytes.Repeat([]byte{0xAA}, 4*1024)
	if err := s.ReadBlocks(254, p); err != nil || !bytes.Equal(p, make([]byte, 4*1024)) {
		t.Fatalf("a never-written range across a chunk boundary does not read as zeros (%v)", err)
	}
	if bad := s.VerifyGuards(); len(bad) != 0 || backed() != 0 {
		t.Fatalf("a read and a guard sweep of an empty store: bad %v, %d chunks backed", bad, backed())
	}

	// A multi-block write across a chunk boundary, logged, then rolled back
	// over a chunk that did not exist before the write.
	s.EnableWriteLog()
	src := bytes.Repeat([]byte{1, 2, 3, 4}, 1024)
	if err := s.WriteBlocks(254, src); err != nil {
		t.Fatal(err)
	}
	if backed() != 2 {
		t.Fatalf("a write of blocks 254..257 backed %d chunks, want 2", backed())
	}
	if err := s.ReadBlocks(254, p); err != nil || !bytes.Equal(p, src) {
		t.Fatalf("the write across the boundary reads back wrong (%v)", err)
	}
	if n := s.Rollback(3); n != 3 {
		t.Fatalf("rolled back %d", n)
	}
	if err := s.ReadBlocks(254, p); err != nil || !bytes.Equal(p[:1024], src[:1024]) || !bytes.Equal(p[1024:], make([]byte, 3*1024)) {
		t.Fatalf("after rolling back three of four blocks (%v): % x ...", err, p[1020:1030])
	}
	if bad := s.VerifyGuards(); len(bad) != 0 {
		t.Fatalf("VerifyGuards after the rollback: %v", bad)
	}

	// The last chunk is shorter than the rest and ends where the device does.
	if err := s.WriteBlocks(996, src); err != nil {
		t.Fatal(err)
	}
	if got := len(s.chunks[3]); got != 232*1024 {
		t.Fatalf("the last chunk holds %d bytes, want %d", got, 232*1024)
	}
	if err := s.WriteBlocks(997, src); err == nil {
		t.Fatal("a write past the last chunk's end was accepted")
	}

	// A block larger than a chunk gets a chunk of its own.
	big := NewStore(384<<10, 3)
	if err := big.WriteBlocks(1, make([]byte, 2*384<<10)); err != nil || len(big.chunks) != 3 || big.chunks[0] != nil || len(big.chunks[2]) != 384<<10 {
		t.Fatalf("384 KB blocks: %v, %d chunks", err, len(big.chunks))
	}

	// A wrong tag over a block nothing ever wrote is still a wrong tag.
	s.guards[700]++
	if bad := s.VerifyGuards(); !slices.Equal(bad, []int64{700}) || s.chunks[2] != nil {
		t.Fatalf("VerifyGuards = %v with a damaged tag in an unbacked chunk, want [700]", bad)
	}
	s.guards[700]--

	// Damage behind the guards' back, in a written chunk and in a fresh one.
	s.Block(999)[5] ^= 1
	s.Block(600)[0] = 1
	if bad := s.VerifyGuards(); !slices.Equal(bad, []int64{600, 999}) {
		t.Fatalf("VerifyGuards = %v, want [600 999]", bad)
	}
}

// Allocation ceilings in the style of internal/sim/alloc_test.go: a store costs
// its guard table and the chunks written, and block I/O inside one chunk
// allocates nothing.
func TestStoreAllocations(t *testing.T) {
	var before, after runtime.MemStats
	block := make([]byte, 1024)
	runtime.ReadMemStats(&before)
	s := NewStore(1024, 128<<10)
	if err := s.WriteBlocks(5000, block); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(chunkBytes+4*(128<<10)+16<<10); got > max {
		t.Errorf("a 128 MB store with one block written allocated %d bytes, ceiling %d (one chunk + the guard table)", got, max)
	}
	p := make([]byte, 4096)
	if n := testing.AllocsPerRun(200, func() { s.WriteBlocks(5000, p); s.ReadBlocks(5000, p) }); n != 0 {
		t.Errorf("WriteBlocks+ReadBlocks of 4 KB inside one chunk allocate %v, want 0", n)
	}
}
