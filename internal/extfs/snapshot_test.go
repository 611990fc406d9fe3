package extfs

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"nesc/internal/extent"
)

func readBack(t *testing.T, f *File) []byte {
	t.Helper()
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(nil, buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf
}

func mustCheck(t *testing.T, fs *FS) {
	t.Helper()
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSharesBlocksAndReadsIdentical(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/vm.img", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("base image "), 2000)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	freeBefore := fs.FreeBlocks()
	if err := fs.Snapshot(nil, "/vm.img", "/vm.snap", 100); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, fs)
	// The snapshot shares every data block: only the lazily allocated
	// refcount table (plus at most an inode/overflow block) may be consumed.
	tableBlocks := fs.sb.refcntBlocks
	if used := freeBefore - fs.FreeBlocks(); used > tableBlocks+2 {
		t.Fatalf("snapshot consumed %d blocks (table is %d): not sharing", used, tableBlocks)
	}
	if fs.SharedBlocks() == 0 {
		t.Fatal("no blocks marked shared")
	}
	snap, err := fs.Open(nil, "/vm.snap", 100, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, snap); !bytes.Equal(got, data) {
		t.Fatal("snapshot reads differ from source at snapshot time")
	}
	// Every extent of both files is write-protected.
	for _, path := range []string{"/vm.img", "/vm.snap"} {
		for _, r := range extentsOf(t, fs, path) {
			if !r.Protected() {
				t.Fatalf("%s extent %+v not protected", path, r)
			}
		}
	}
}

func TestSnapshotWriteIsolationBothDirections(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/a", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte{0xAB}, 8000)
	if _, err := f.WriteAt(nil, base, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/a", "/a.snap", 100); err != nil {
		t.Fatal(err)
	}
	snap, err := fs.Open(nil, "/a.snap", 100, PermRead|PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	// Parent writes must not leak into the snapshot...
	if _, err := f.WriteAt(nil, bytes.Repeat([]byte{0x11}, 3000), 1000); err != nil {
		t.Fatal(err)
	}
	if fs.CowBreaks == 0 {
		t.Fatal("overwrite of protected extent did not break sharing")
	}
	if got := readBack(t, snap); !bytes.Equal(got, base) {
		t.Fatal("parent write leaked into snapshot")
	}
	// ...and snapshot writes must not leak into the parent.
	want := append([]byte(nil), base...)
	copy(want[1000:], bytes.Repeat([]byte{0x11}, 3000))
	if _, err := snap.WriteAt(nil, []byte{0x77}, 5000); err != nil {
		t.Fatal(err)
	}
	got := readBack(t, f)
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot write leaked into parent")
	}
	mustCheck(t, fs)
}

func TestSnapshotPersistsAcrossRemount(t *testing.T) {
	fs, dev := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/p", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("persist"), 3000)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/p", "/p.snap", 100); err != nil {
		t.Fatal(err)
	}
	shared := fs.SharedBlocks()

	fs2, err := Mount(nil, dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustCheck(t, fs2)
	if got := fs2.SharedBlocks(); got != shared {
		t.Fatalf("remount: %d shared blocks, want %d", got, shared)
	}
	// The protect flag survives the inode round trip, so a post-remount
	// write still breaks sharing.
	f2, err := fs2.Open(nil, "/p", 100, PermRead|PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.WriteAt(nil, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if fs2.CowBreaks == 0 {
		t.Fatal("post-remount write did not take the CoW path")
	}
	snap, err := fs2.Open(nil, "/p.snap", 100, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, snap); !bytes.Equal(got, data) {
		t.Fatal("snapshot changed across remount + parent write")
	}
	mustCheck(t, fs2)
}

func TestDeleteSnapshotReclaimsOnlyPrivateBlocks(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/d", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{1}, 16*1024)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/d", "/d.snap", 100); err != nil {
		t.Fatal(err)
	}
	// Parent diverges on a few blocks; those copies are private to it.
	if _, err := f.WriteAt(nil, bytes.Repeat([]byte{2}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	free := fs.FreeBlocks()
	if err := fs.Remove(nil, "/d.snap", 100); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, fs)
	reclaimed := fs.FreeBlocks() - free
	// The snapshot privately owned the 4 blocks the parent diverged from;
	// the rest were shared with the parent and must survive.
	if reclaimed < 4 || reclaimed > 5 {
		t.Fatalf("reclaimed %d blocks, want the snapshot's ~4 private ones", reclaimed)
	}
	if fs.SharedBlocks() != 0 {
		t.Fatalf("%d blocks still marked shared after last snapshot deleted", fs.SharedBlocks())
	}
	// Parent data intact and writable without copies (stale flags clear in
	// place, no fresh allocation).
	want := append([]byte(nil), data...)
	copy(want, bytes.Repeat([]byte{2}, 4096))
	if got := readBack(t, f); !bytes.Equal(got, want) {
		t.Fatal("parent corrupted by snapshot delete")
	}
	freeBefore := fs.FreeBlocks()
	if _, err := f.WriteAt(nil, []byte{9}, 8192); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() != freeBefore {
		t.Fatal("write after last-sharer delete still copied blocks")
	}
	mustCheck(t, fs)
}

func TestCloneFanoutSharing(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/base", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32*1024)
	rand.New(rand.NewSource(7)).Read(data)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/c1", "/c2", "/c3"} {
		if err := fs.Snapshot(nil, "/base", p, 100); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, fs)
	// Each clone writes a disjoint region; all others keep the base bytes.
	clones := []string{"/c1", "/c2", "/c3"}
	for i, p := range clones {
		cf, err := fs.Open(nil, p, 100, PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		patch := bytes.Repeat([]byte{byte(0xC0 + i)}, 2048)
		if _, err := cf.WriteAt(nil, patch, int64(i)*8192); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, fs)
	if got := readBack(t, f); !bytes.Equal(got, data) {
		t.Fatal("clone writes leaked into base")
	}
	for i, p := range clones {
		cf, err := fs.Open(nil, p, 100, PermRead)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), data...)
		copy(want[i*8192:], bytes.Repeat([]byte{byte(0xC0 + i)}, 2048))
		if got := readBack(t, cf); !bytes.Equal(got, want) {
			t.Fatalf("clone %s diverged wrong", p)
		}
	}
}

func TestBreakRangeIdempotentAndTargeted(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/b", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(nil, bytes.Repeat([]byte{5}, 10*1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/b", "/b.snap", 100); err != nil {
		t.Fatal(err)
	}
	free := fs.FreeBlocks()
	if err := f.BreakShare(nil, 2, 1); err != nil {
		t.Fatal(err)
	}
	if used := free - fs.FreeBlocks(); used != 1 {
		t.Fatalf("single-block break copied %d blocks", used)
	}
	breaks := fs.CowBreaks
	if err := f.BreakShare(nil, 2, 1); err != nil {
		t.Fatal(err)
	}
	if fs.CowBreaks != breaks {
		t.Fatal("re-breaking an already-private block did work")
	}
	// The broken block is no longer protected; its neighbours still are.
	var prot, unprot int
	for _, r := range f.Extents() {
		if r.Protected() {
			prot++
		} else {
			unprot++
			if r.Logical != 2 || r.Count != 1 {
				t.Fatalf("unprotected run %+v, want block 2 only", r)
			}
		}
	}
	if prot == 0 || unprot != 1 {
		t.Fatalf("runs after targeted break: %d protected, %d unprotected", prot, unprot)
	}
	mustCheck(t, fs)
}

func TestSnapshotOfSnapshotChains(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/g0", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("gen"), 4000)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/g0", "/g1", 100); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/g1", "/g2", 100); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, fs)
	// Diverge every generation and verify they stay independent.
	for i, p := range []string{"/g0", "/g1", "/g2"} {
		h, err := fs.Open(nil, p, 100, PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(nil, []byte{byte(i + 1)}, int64(i)*1024); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, fs)
	for i, p := range []string{"/g0", "/g1", "/g2"} {
		h, err := fs.Open(nil, p, 100, PermRead)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), data...)
		want[i*1024] = byte(i + 1)
		if got := readBack(t, h); !bytes.Equal(got, want) {
			t.Fatalf("generation %s corrupted", p)
		}
	}
}

func TestTruncateBreaksSharedTailBlock(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/t", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xEE}, 4096)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/t", "/t.snap", 100); err != nil {
		t.Fatal(err)
	}
	// Shrink to mid-block: the tail zeroing rewrites the last kept block,
	// which must not touch the snapshot's shared copy.
	if err := f.Truncate(nil, 1500); err != nil {
		t.Fatal(err)
	}
	snap, err := fs.Open(nil, "/t.snap", 100, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, snap); !bytes.Equal(got, data) {
		t.Fatal("truncate of parent mutated snapshot data")
	}
	if _, err := f.WriteAt(nil, bytes.Repeat([]byte{0xDD}, 2596), 1500); err != nil {
		t.Fatal(err)
	}
	got := readBack(t, f)
	want := append(bytes.Repeat([]byte{0xEE}, 1500), bytes.Repeat([]byte{0xDD}, 2596)...)
	if !bytes.Equal(got, want) {
		t.Fatal("tail zeroing lost after CoW truncate")
	}
	if got := readBack(t, snap); !bytes.Equal(got, data) {
		t.Fatal("regrow leaked into snapshot")
	}
	mustCheck(t, fs)
}

func TestSnapshotPermissionsAndErrors(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	if _, err := fs.Create(nil, "/secret", 100, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/secret", "/stolen", 200); err == nil {
		t.Fatal("snapshot of unreadable file allowed")
	}
	if err := fs.Snapshot(nil, "/", "/dirsnap", 0); err == nil {
		t.Fatal("snapshot of a directory allowed")
	}
	if err := fs.Snapshot(nil, "/nope", "/x", 0); err == nil {
		t.Fatal("snapshot of missing file allowed")
	}
	mustCheck(t, fs)
}

func TestMigrateOfSharedFileKeepsSnapshotIntact(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/m", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("mig"), 5000)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/m", "/m.snap", 100); err != nil {
		t.Fatal(err)
	}
	// Migration relocates the parent's blocks; the snapshot keeps the old
	// ones (its references hold them live).
	if err := f.Migrate(nil); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, fs)
	if got := readBack(t, f); !bytes.Equal(got, data) {
		t.Fatal("migrate corrupted parent")
	}
	snap, err := fs.Open(nil, "/m.snap", 100, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, snap); !bytes.Equal(got, data) {
		t.Fatal("migrate corrupted snapshot")
	}
}

func TestRefcountFlagRoundTrip(t *testing.T) {
	r := extent.Run{Logical: 3, Physical: 9, Count: 7, Flags: extent.FlagProtected}
	if c := packExtCount(r); c != 7|countProtectBit {
		t.Fatalf("packed = %#x", c)
	}
	count, flags := unpackExtCount(7 | countProtectBit)
	if count != 7 || flags != extent.FlagProtected {
		t.Fatalf("unpacked = %d, %#x", count, flags)
	}
	count, flags = unpackExtCount(7)
	if count != 7 || flags != 0 {
		t.Fatalf("unpacked plain = %d, %#x", count, flags)
	}
}
