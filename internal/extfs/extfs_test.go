package extfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"

	"nesc/internal/extent"
	"nesc/internal/sim"
)

func newFS(t *testing.T, mode JournalMode) (*FS, *MemDev) {
	t.Helper()
	dev := NewMemDev(1024, 16384) // 16 MB volume
	fs, err := Format(nil, dev, Params{InodeCount: 256, JournalBlocks: 128, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

// openRW opens path on fs read-write as root.
func openRW(t testing.TB, fs *FS, path string) *File {
	t.Helper()
	f, err := fs.Open(nil, path, 0, PermRead|PermWrite)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return f
}

// extentsOf returns a copy of path's extent map on fs.
func extentsOf(t testing.TB, fs *FS, path string) []extent.Run {
	t.Helper()
	return slices.Clone(openRW(t, fs, path).Extents())
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/a.dat", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("nesc"), 1000)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := f.ReadAt(nil, got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, match=%v", n, bytes.Equal(got, data))
	}
	if f.Size() != uint64(len(data)) {
		t.Fatalf("size = %d", f.Size())
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedWritesAndReads(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/u", 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([]byte, 10000)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		off := rng.Intn(9000)
		n := 1 + rng.Intn(999)
		chunk := make([]byte, n)
		rng.Read(chunk)
		if _, err := f.WriteAt(nil, chunk, int64(off)); err != nil {
			t.Fatal(err)
		}
		copy(shadow[off:], chunk)
	}
	size := int(f.Size())
	got := make([]byte, size)
	if _, err := f.ReadAt(nil, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow[:size]) {
		t.Fatal("unaligned write/read mismatch")
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseFilesReadZeros(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/sparse", 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Write at 8KB, leaving a 8KB hole at the front.
	if _, err := f.WriteAt(nil, []byte("tail"), 8192); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8196)
	if _, err := f.ReadAt(nil, buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i := 0; i < 8192; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, buf[i])
		}
	}
	if string(buf[8192:8196]) != "tail" {
		t.Fatalf("tail = %q", buf[8192:8196])
	}
	info, err := fs.Stat(nil, "/sparse", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Extents != 1 {
		t.Fatalf("sparse file has %d extents, want 1", info.Extents)
	}
}

func TestTruncateGrowAndShrink(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/t", 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(nil, bytes.Repeat([]byte{7}, 5000), 0); err != nil {
		t.Fatal(err)
	}
	free0 := fs.FreeBlocks()
	if err := f.Truncate(nil, 100000); err != nil { // sparse growth
		t.Fatal(err)
	}
	if fs.FreeBlocks() != free0 {
		t.Fatal("sparse growth allocated blocks")
	}
	if f.Size() != 100000 {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.Truncate(nil, 1000); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() <= free0 {
		t.Fatal("shrink freed nothing")
	}
	got := make([]byte, 1000)
	if _, err := f.ReadAt(nil, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 7 {
			t.Fatal("shrink corrupted retained data")
		}
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadPastEOF(t *testing.T) {
	fs, _ := newFS(t, JournalNone)
	f, _ := fs.Create(nil, "/f", 0, 0o644)
	if _, err := f.WriteAt(nil, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := f.ReadAt(nil, buf, 0)
	if n != 5 || err != io.EOF {
		t.Fatalf("short read = %d, %v", n, err)
	}
	if _, err := f.ReadAt(nil, buf, 100); err != io.EOF {
		t.Fatalf("read past EOF = %v", err)
	}
}

func TestDirectoriesAndPaths(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	if err := fs.Mkdir(nil, "/vms", 0, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(nil, "/vms/alpha", 0, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(nil, "/vms/alpha/disk.img", 0, 0o600); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(nil, "/vms", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "alpha" {
		t.Fatalf("ReadDir = %+v", ents)
	}
	info, err := fs.Stat(nil, "/vms/alpha/disk.img", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir() || info.Mode&0o777 != 0o600 {
		t.Fatalf("stat = %+v", info)
	}
	if _, err := fs.Create(nil, "/vms/alpha/disk.img", 0, 0o600); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create = %v", err)
	}
	if _, err := fs.Open(nil, "/vms/alpha", 0, PermRead); !errors.Is(err, ErrIsDir) {
		t.Fatalf("open dir = %v", err)
	}
	if _, err := fs.Open(nil, "/nope", 0, PermRead); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing = %v", err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemove(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	free0 := fs.FreeBlocks()
	f, _ := fs.Create(nil, "/big", 0, 0o644)
	if _, err := f.WriteAt(nil, make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(nil, "/d", 0, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(nil, "/d/x", 0, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(nil, "/d", 0); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty dir = %v", err)
	}
	if err := fs.Remove(nil, "/d/x", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(nil, "/d", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(nil, "/big", 0); err != nil {
		t.Fatal(err)
	}
	// Root dir data block may remain allocated; everything else returns.
	if fs.FreeBlocks() < free0-1 {
		t.Fatalf("blocks leaked: %d -> %d", free0, fs.FreeBlocks())
	}
	if _, err := fs.Stat(nil, "/big", 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat removed = %v", err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermissions(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	const alice, bob = 100, 200
	f, err := fs.Create(nil, "/secret", alice, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(nil, []byte("top"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open(nil, "/secret", bob, PermRead); !errors.Is(err, ErrPerm) {
		t.Fatalf("bob read secret = %v", err)
	}
	if _, err := fs.Open(nil, "/secret", alice, PermRead|PermWrite); err != nil {
		t.Fatalf("alice denied: %v", err)
	}
	// Root always allowed.
	if _, err := fs.Open(nil, "/secret", 0, PermRead|PermWrite); err != nil {
		t.Fatalf("root denied: %v", err)
	}
	// World-readable file: bob can read, not write.
	g, err := fs.Create(nil, "/public", alice, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	if _, err := fs.Open(nil, "/public", bob, PermRead); err != nil {
		t.Fatalf("bob read public = %v", err)
	}
	if _, err := fs.Open(nil, "/public", bob, PermWrite); !errors.Is(err, ErrPerm) {
		t.Fatalf("bob write public = %v", err)
	}
	// Read-only handles reject writes and every other change to the file.
	ro, err := fs.Open(nil, "/public", bob, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.WriteAt(nil, []byte("x"), 0); !errors.Is(err, ErrPerm) {
		t.Fatalf("write through RO handle = %v", err)
	}
	for what, err := range map[string]error{
		"truncate": ro.Truncate(nil, 0), "allocate": ro.Allocate(nil, 0, 1),
		"break share": ro.BreakShare(nil, 0, 1), "migrate": ro.Migrate(nil),
	} {
		if !errors.Is(err, ErrPerm) {
			t.Fatalf("%s through RO handle = %v", what, err)
		}
	}
}

func TestRunsExportAndExtentCoalescing(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, _ := fs.Create(nil, "/img", 0, 0o644)
	// Sequential writes should coalesce into very few extents.
	chunk := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		if _, err := f.WriteAt(nil, chunk, int64(i*4096)); err != nil {
			t.Fatal(err)
		}
	}
	runs, size := f.Extents(), f.Size()
	if size != 64*4096 {
		t.Fatalf("size = %d", size)
	}
	if len(runs) > 4 {
		t.Fatalf("sequential writes produced %d extents; allocator not coalescing", len(runs))
	}
	var covered uint64
	for _, r := range runs {
		covered += r.Count
	}
	if covered != 64*4 { // 64 * 4KB in 1KB blocks
		t.Fatalf("runs cover %d blocks, want 256", covered)
	}
}

// Fill writes data into the holes of its range and zeros past the data; a
// block already mapped keeps its content, and the file grows to cover the
// range.
func TestFillWritesDataThenZerosIntoTheHoles(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, _ := fs.Create(nil, "/fill", 0, 0o644)
	mine := bytes.Repeat([]byte{0xEE}, 1024)
	if _, err := f.WriteAt(nil, mine, 1024); err != nil {
		t.Fatal(err)
	}
	data := [][]byte{bytes.Repeat([]byte{1}, 1024), bytes.Repeat([]byte{2}, 1024), []byte{3}}
	filled, err := f.Fill(nil, 0, 5, data)
	if err != nil || filled != 2 {
		t.Fatalf("Fill = %d, %v; want the 2 holes data covers", filled, err)
	}
	got := make([]byte, 5*1024)
	if _, err := f.ReadAt(nil, got, 0); err != nil {
		t.Fatal(err)
	}
	want := slices.Concat(data[0], mine, []byte{3}, make([]byte, 1023+2*1024))
	if !bytes.Equal(got, want) || f.Size() != 5*1024 {
		t.Errorf("after Fill the file is %d bytes, content as wanted %v", f.Size(), bytes.Equal(got, want))
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateRangeFillsHoles(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, _ := fs.Create(nil, "/lazy", 0, 0o644)
	if err := f.Truncate(nil, 64*1024); err != nil {
		t.Fatal(err)
	}
	if runs := f.Extents(); len(runs) != 0 {
		t.Fatalf("sparse file has %d runs", len(runs))
	}
	if err := f.Allocate(nil, 8, 4); err != nil {
		t.Fatal(err)
	}
	if runs := f.Extents(); len(runs) != 1 || runs[0].Logical != 8 || runs[0].Count != 4 {
		t.Fatalf("runs after Allocate = %+v", runs)
	}
	// The allocated blocks must read back as zeros (no stale data).
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(nil, buf, 8*1024); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("lazily allocated block not zeroed")
		}
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestManyExtentsOverflowChain(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, _ := fs.Create(nil, "/frag", 0, 0o644)
	// Force fragmentation: write every other 1KB block.
	blk := make([]byte, 1024)
	for i := 0; i < 200; i++ {
		blk[0] = byte(i)
		if _, err := f.WriteAt(nil, blk, int64(i*2048)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := fs.Stat(nil, "/frag", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Extents <= inlineExtents {
		t.Fatalf("only %d extents; test needs overflow chain", info.Extents)
	}
	// Every block reads back correctly.
	for i := 0; i < 200; i++ {
		got := make([]byte, 1024)
		if _, err := f.ReadAt(nil, got, int64(i*2048)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d = %d", i, got[0])
		}
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestMountReloadsEverything(t *testing.T) {
	fs, dev := newFS(t, JournalMetadata)
	f, _ := fs.Create(nil, "/persist", 42, 0o640)
	data := bytes.Repeat([]byte{0xCD}, 300000)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	// Fragmented file to exercise overflow persistence.
	g, _ := fs.Create(nil, "/frag", 0, 0o644)
	blk := make([]byte, 1024)
	for i := 0; i < 50; i++ {
		if _, err := g.WriteAt(nil, blk, int64(i*2048)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mkdir(nil, "/dir", 7, 0o700); err != nil {
		t.Fatal(err)
	}

	fs2, err := Mount(nil, dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := fs2.Stat(nil, "/persist", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.UID != 42 || info.Size != uint64(len(data)) || info.Mode&0o777 != 0o640 {
		t.Fatalf("remounted stat = %+v", info)
	}
	h, err := fs2.Open(nil, "/persist", 42, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := h.ReadAt(nil, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across remount")
	}
	fi, err := fs2.Stat(nil, "/frag", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Extents < 50 {
		t.Fatalf("fragmented extents lost: %d", fi.Extents)
	}
	if err := fs2.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRecovery(t *testing.T) {
	fs, dev := newFS(t, JournalMetadata)
	f, _ := fs.Create(nil, "/a", 0, 0o644)
	if _, err := f.WriteAt(nil, []byte("before"), 0); err != nil {
		t.Fatal(err)
	}
	// Crash between commit and checkpoint of the next operation.
	fs.failAfterCommit = true
	if _, err := fs.Create(nil, "/b", 0, 0o644); err != nil {
		t.Fatal(err)
	}
	// The FS is now dead; further ops fail.
	if _, err := fs.Create(nil, "/c", 0, 0o644); !errors.Is(err, ErrDead) {
		t.Fatalf("op on dead fs = %v", err)
	}
	// Remount: the journal redo must make /b visible.
	fs2, err := Mount(nil, dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat(nil, "/b", 0); err != nil {
		t.Fatalf("/b lost after recovery: %v", err)
	}
	if _, err := fs2.Stat(nil, "/a", 0); err != nil {
		t.Fatalf("/a lost: %v", err)
	}
	if err := fs2.Check(nil); err != nil {
		t.Fatal(err)
	}
}

// mappedBlocks counts the blocks of [0, n) f maps.
func mappedBlocks(f *File, n uint64) int {
	mapped := 0
	for _, r := range f.Extents() {
		if r.Logical < n {
			mapped += int(min(r.End(), n) - r.Logical)
		}
	}
	return mapped
}

// rejectOneDev rejects exactly one device write, the reject-th (from 0) it
// sees, and keeps the home block of each.
type rejectOneDev struct {
	*MemDev
	writes []int64
	reject int
}

func (d *rejectOneDev) WriteBlocks(ctx *sim.Proc, lba int64, p []byte) error {
	d.writes = append(d.writes, lba)
	if len(d.writes)-1 == d.reject {
		return errors.New("write rejected")
	}
	return d.MemDev.WriteBlocks(ctx, lba, p)
}

// A transaction whose checkpoint fails is owed, not dropped: the next
// operation writes it home before its own record, which becomes the newest, so
// a remount that replays only the newest record still finds the older one
// whole. Each checkpoint write of an 8-block Allocate is rejected in turn, then
// an unrelated Create commits; the remount must pass fsck and map the whole
// allocation or none of it — timeless, and under processes, where the
// checkpoint runs after the Allocate returned.
func TestFailedCheckpointIsOwedToTheNextOperation(t *testing.T) {
	setup := func(reject int) (*FS, *rejectOneDev) {
		dev := &rejectOneDev{MemDev: NewMemDev(1024, 16384), reject: -1}
		fs, err := Format(nil, dev, Params{InodeCount: 256, JournalBlocks: 128, Mode: JournalMetadata})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Create(nil, "/a", 0, 0o644); err != nil {
			t.Fatal(err)
		}
		dev.writes, dev.reject = nil, reject
		return fs, dev
	}
	// The checkpoint's writes are the ones after the last to the journal.
	fs, dev := setup(-1)
	if err := openRW(t, fs, "/a").Allocate(nil, 0, 8); err != nil {
		t.Fatal(err)
	}
	first := 0
	for i, lba := range dev.writes {
		if uint64(lba) >= fs.sb.journalStart && uint64(lba) < fs.sb.dataStart {
			first = i + 1
		}
	}
	if first <= 0 || first >= len(dev.writes) {
		t.Fatalf("no checkpoint writes among %v", dev.writes)
	}
	for _, timed := range []bool{false, true} {
		run := func(fn func(p *sim.Proc)) {
			if !timed {
				fn(nil)
				return
			}
			eng := sim.NewEngine()
			eng.Go("ops", fn)
			eng.Run()
		}
		for k := first; k < len(dev.writes); k++ {
			fs, dev := setup(k)
			f := openRW(t, fs, "/a")
			run(func(p *sim.Proc) {
				err := f.Allocate(p, 0, 8)
				t.Logf("timed %v, checkpoint write %d rejected: Allocate %v", timed, k-first+1, err)
				if _, err := fs.Create(p, "/b", 0, 0o644); err != nil {
					t.Error(err)
				}
			})
			again, err := Mount(nil, dev.MemDev, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := again.Check(nil); err != nil {
				t.Fatalf("timed %v, checkpoint write %d rejected: fsck after remount: %v", timed, k-first+1, err)
			}
			if mapped := mappedBlocks(openRW(t, again, "/a"), 8); mapped != 0 && mapped != 8 {
				t.Fatalf("timed %v, checkpoint write %d rejected: %d of the 8 allocated blocks survived", timed, k-first+1, mapped)
			}
		}
	}
}

func TestJournalModesWriteAmplification(t *testing.T) {
	write := func(mode JournalMode) (journal int64, data int64) {
		fs, _ := newFS(t, mode)
		f, _ := fs.Create(nil, "/w", 0, 0o644)
		buf := make([]byte, 64*1024)
		if _, err := f.WriteAt(nil, buf, 0); err != nil {
			t.Fatal(err)
		}
		return fs.JournalBlockWrites, fs.DataBlockWrites
	}
	jNone, dNone := write(JournalNone)
	jMeta, dMeta := write(JournalMetadata)
	jFull, _ := write(JournalFull)
	if jNone != 0 {
		t.Fatalf("JournalNone wrote %d journal blocks", jNone)
	}
	if jMeta == 0 {
		t.Fatal("JournalMetadata wrote no journal blocks")
	}
	if dMeta != dNone {
		t.Fatalf("metadata journaling changed data writes: %d vs %d", dMeta, dNone)
	}
	// Full journaling at least doubles journal traffic relative to
	// metadata-only for a data-heavy write (64 data blocks journaled).
	if jFull < jMeta+60 {
		t.Fatalf("full journaling wrote %d journal blocks, metadata %d", jFull, jMeta)
	}
}

func TestJournalWrapAround(t *testing.T) {
	fs, dev := newFS(t, JournalMetadata)
	// Many small metadata transactions to wrap the 128-block journal
	// several times; create/remove pairs keep inode usage bounded.
	for i := 0; i < 300; i++ {
		name := "/wrap" + string(rune('a'+i%26))
		if _, err := fs.Create(nil, name, 0, 0o644); err != nil && !errors.Is(err, ErrExist) {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := fs.Remove(nil, name, 0); err != nil && !errors.Is(err, ErrNotExist) {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(nil, dev, 0); err != nil {
		t.Fatalf("mount after journal wrap: %v", err)
	}
}

func TestOutOfSpace(t *testing.T) {
	dev := NewMemDev(1024, 600) // tiny volume
	fs, err := Format(nil, dev, Params{InodeCount: 16, JournalBlocks: 16, Mode: JournalMetadata})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create(nil, "/fill", 0, 0o644)
	_, err = f.WriteAt(nil, make([]byte, 2<<20), 0)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overfill = %v", err)
	}
}

func TestPathValidation(t *testing.T) {
	fs, _ := newFS(t, JournalNone)
	for _, bad := range []string{"/a/../b", "/a//b", "/."} {
		if _, err := fs.Create(nil, bad, 0, 0o644); err == nil {
			t.Fatalf("path %q accepted", bad)
		}
	}
	long := "/" + string(bytes.Repeat([]byte{'x'}, MaxNameLen+1))
	if _, err := fs.Create(nil, long, 0, 0o644); !errors.Is(err, ErrNameTooLng) {
		t.Fatalf("long name = %v", err)
	}
}

// Property-style: random operation sequences keep the filesystem consistent
// (fsck passes) and a parallel in-memory model agrees on file contents.
func TestRandomOpsModelCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fs, dev := newFS(t, JournalMetadata)
	type model struct{ data []byte }
	files := map[string]*model{}
	handles := map[string]*File{}
	names := []string{"/f0", "/f1", "/f2", "/f3", "/f4"}
	for iter := 0; iter < 400; iter++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // write
			if files[name] == nil {
				f, err := fs.Create(nil, name, 0, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				files[name] = &model{}
				handles[name] = f
			}
			off := rng.Intn(50000)
			n := 1 + rng.Intn(4000)
			chunk := make([]byte, n)
			rng.Read(chunk)
			if _, err := handles[name].WriteAt(nil, chunk, int64(off)); err != nil {
				t.Fatal(err)
			}
			m := files[name]
			if off+n > len(m.data) {
				nd := make([]byte, off+n)
				copy(nd, m.data)
				m.data = nd
			}
			copy(m.data[off:], chunk)
		case 5, 6, 7: // read & compare
			if files[name] == nil {
				continue
			}
			m := files[name]
			if len(m.data) == 0 {
				continue
			}
			off := rng.Intn(len(m.data))
			n := 1 + rng.Intn(len(m.data)-off)
			got := make([]byte, n)
			if _, err := handles[name].ReadAt(nil, got, int64(off)); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, m.data[off:off+n]) {
				t.Fatalf("iter %d: content mismatch on %s [%d:%d]", iter, name, off, off+n)
			}
		case 8: // truncate
			if files[name] == nil {
				continue
			}
			m := files[name]
			sz := rng.Intn(60000)
			if err := handles[name].Truncate(nil, uint64(sz)); err != nil {
				t.Fatal(err)
			}
			if sz <= len(m.data) {
				m.data = m.data[:sz]
			} else {
				nd := make([]byte, sz)
				copy(nd, m.data)
				m.data = nd
			}
		case 9: // remove
			if files[name] == nil {
				continue
			}
			if err := fs.Remove(nil, name, 0); err != nil {
				t.Fatal(err)
			}
			delete(files, name)
			delete(handles, name)
		}
		if iter%100 == 99 {
			if err := fs.Check(nil); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
	// Survives a remount with identical content.
	fs2, err := Mount(nil, dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range files {
		h, err := fs2.Open(nil, name, 0, PermRead)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(m.data))
		if len(got) > 0 {
			if _, err := h.ReadAt(nil, got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, m.data) {
			t.Fatalf("remount content mismatch on %s", name)
		}
	}
}

func TestOpsChargeTimeUnderProcess(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewMemDev(1024, 4096)
	fs, err := Format(nil, dev, Params{InodeCount: 64, JournalBlocks: 32, Mode: JournalMetadata, OpCost: 5 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Time
	eng.Go("io", func(p *sim.Proc) {
		f, err := fs.Create(p, "/x", 0, 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.WriteAt(p, make([]byte, 4096), 0); err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
	})
	eng.Run()
	if elapsed < 10*sim.Microsecond {
		t.Fatalf("two ops charged only %v", elapsed)
	}
}

func TestFSLockSerializesProcesses(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewMemDev(1024, 4096)
	fs, err := Format(nil, dev, Params{InodeCount: 64, JournalBlocks: 32, Mode: JournalMetadata, OpCost: 10 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		name := "/p" + string(rune('0'+i))
		eng.Go("vm", func(p *sim.Proc) {
			if _, err := fs.Create(p, name, 0, 0o644); err != nil {
				t.Error(err)
			}
			ends = append(ends, p.Now())
		})
	}
	eng.Run()
	if len(ends) != 3 {
		t.Fatalf("completions = %d", len(ends))
	}
	// With a 10us op cost and one lock, completions must be spread.
	if ends[2] < 30*sim.Microsecond {
		t.Fatalf("ops not serialized: %v", ends)
	}
}

func TestFullJournalLargeWriteBatches(t *testing.T) {
	// A write larger than one journal transaction must split into batches
	// instead of failing (multi-transaction operations, as in ext4).
	fs, dev := newFS(t, JournalFull)
	f, err := fs.Create(nil, "/big", 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x3C}, 600*1024) // 600 blocks >> one tx
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatalf("large full-journal write: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(nil, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch after batched journaling")
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
	// And the volume still mounts cleanly.
	if _, err := Mount(nil, dev, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTinyJournalStillWorks(t *testing.T) {
	dev := NewMemDev(1024, 4096)
	fs, err := Format(nil, dev, Params{InodeCount: 32, JournalBlocks: 8, Mode: JournalFull})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(nil, "/x", 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(nil, make([]byte, 64*1024), 0); err != nil {
		t.Fatalf("write through tiny journal: %v", err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

// failingDev rejects every write while fail is set, as a device whose
// transfers keep faulting.
type failingDev struct {
	*MemDev
	fail bool
}

func (d *failingDev) WriteBlocks(ctx *sim.Proc, lba int64, p []byte) error {
	if d.fail {
		return errors.New("write rejected")
	}
	return d.MemDev.WriteBlocks(ctx, lba, p)
}

// A preallocation whose zero fill fails has mapped nothing, so it must hold
// nothing either: the run it took goes back, and the image it was for can be
// removed without a block left allocated.
func TestFailedZeroFillFreesItsRun(t *testing.T) {
	dev := &failingDev{MemDev: NewMemDev(1024, 16384)}
	fs, err := Format(nil, dev, Params{InodeCount: 256, JournalBlocks: 128, Mode: JournalMetadata})
	if err != nil {
		t.Fatal(err)
	}
	img, err := fs.Create(nil, "/img", 0, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	free := fs.FreeBlocks()
	dev.fail = true
	if err := img.Allocate(nil, 0, 64); err == nil {
		t.Fatal("preallocation on a device rejecting writes succeeded")
	}
	dev.fail = false
	if got := fs.FreeBlocks(); got != free {
		t.Errorf("%d blocks free after the failed preallocation, %d before", got, free)
	}
	if err := errors.Join(fs.Remove(nil, "/img", 0), fs.Check(nil)); err != nil {
		t.Fatal(err)
	}
}
