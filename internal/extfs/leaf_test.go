package extfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// fragment creates path with e one-block extents at logical blocks 0, 2, 4, …:
// each Allocate fills no hole next to another extent, so nothing merges.
func fragment(t testing.TB, fs *FS, path string, e int) *File {
	t.Helper()
	f, err := fs.Create(nil, path, 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e; i++ {
		if err := f.Allocate(nil, uint64(2*i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(fs.inodes[f.ino].extents); n != e {
		t.Fatalf("%s has %d extents, want %d", path, n, e)
	}
	return f
}

// sameRuns reports how path's size or extent map differs between the live
// filesystem and a remount of its device, or nil.
func sameRuns(live, again *FS, path string) error {
	lf, err := live.Open(nil, path, 0, PermRead)
	if err != nil {
		return err
	}
	f, err := again.Open(nil, path, 0, PermRead)
	if err != nil {
		return fmt.Errorf("%s after a remount: %w", path, err)
	}
	want, size, got, gotSize := lf.Extents(), lf.Size(), f.Extents(), f.Size()
	if gotSize != size || !slices.Equal(got, want) {
		return fmt.Errorf("%s is %d bytes in %v after a remount, live %d bytes in %v", path, gotSize, got, size, want)
	}
	return nil
}

// A lazy-allocation miss journals the same blocks whatever the file's extent
// count: the inode block, the one leaf the new extent lands in and the bitmap
// block, between a descriptor and a commit record. That holds for a miss in
// the middle of the list and for one among the inline extents, whose shift
// lands on leaf 0. A chain rewritten whole on every update journals a number
// of blocks that grows with the file.
func TestMissJournalsAFlatCost(t *testing.T) {
	var counts []int64
	for _, e := range []int{10, 100, 1000} {
		fs, _ := newFS(t, JournalMetadata)
		f := fragment(t, fs, "/img", e)
		for _, lblk := range []uint64{uint64(e/2)*2 + 1, 1} {
			before := fs.JournalBlockWrites
			if err := f.Allocate(nil, lblk, 1); err != nil {
				t.Fatal(err)
			}
			counts = append(counts, fs.JournalBlockWrites-before)
		}
		mustCheck(t, fs)
	}
	t.Logf("journal blocks per miss (middle, inline) at 10, 100 and 1000 extents: %v", counts)
	if counts[0] > 8 || slices.ContainsFunc(counts, func(n int64) bool { return n != counts[0] }) {
		t.Errorf("a one-block miss journals %v blocks (middle, inline) at 10, 100 and 1000 extents; want one count, at most 8", counts)
	}
}

// Mount reads the overflow chain from the device and must not trust it: a
// leaf count past a block's capacity once panicked Mount on a slice bound, and
// a next pointer back at its own block hung it. Every row corrupts the chain
// (or the inode) of a 100-extent file, and Mount must refuse with an error.
// The last transaction before the corruption touches neither the file's
// inode-table block nor its leaves, so the journal replay cannot restore them.
func TestMountRefusesCorruptOverflow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(fs *FS, f *File) (blk int64, off int, val []byte)
	}{
		{"leaf count past a block", func(fs *FS, f *File) (int64, int, []byte) {
			return int64(fs.inodes[f.ino].overflow[0].blk), 4, binary.BigEndian.AppendUint32(nil, uint32(fs.ovfEntriesPerBlock()+1))
		}},
		{"empty leaf", func(fs *FS, f *File) (int64, int, []byte) {
			return int64(fs.inodes[f.ino].overflow[0].blk), 4, make([]byte, 4)
		}},
		{"next loops to its own block", func(fs *FS, f *File) (int64, int, []byte) {
			blk := fs.inodes[f.ino].overflow[0].blk
			return int64(blk), 8, binary.BigEndian.AppendUint64(nil, blk)
		}},
		{"next leaves the data region", func(fs *FS, f *File) (int64, int, []byte) {
			return int64(fs.inodes[f.ino].overflow[0].blk), 8, binary.BigEndian.AppendUint64(nil, 1)
		}},
		{"chain longer than its extents", func(fs *FS, f *File) (int64, int, []byte) {
			blk, off := fs.inodeBlock(f.ino)
			return blk, off + 16, binary.BigEndian.AppendUint32(nil, inlineExtents+1)
		}},
		{"extent count past the volume", func(fs *FS, f *File) (int64, int, []byte) {
			blk, off := fs.inodeBlock(f.ino)
			return blk, off + 16, binary.BigEndian.AppendUint32(nil, math.MaxUint32)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, dev := newFS(t, JournalMetadata)
			f := fragment(t, fs, "/img", 100)
			imgBlk, _ := fs.inodeBlock(f.ino)
			for i := 0; ; i++ {
				pad, err := fs.Create(nil, fmt.Sprintf("/pad%d", i), 0, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if blk, _ := fs.inodeBlock(pad.ino); blk != imgBlk {
					if err := pad.Allocate(nil, 0, 1); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			blk, off, val := tc.corrupt(fs, f)
			img := make([]byte, fs.bs)
			if err := dev.S.ReadBlocks(blk, img); err != nil {
				t.Fatal(err)
			}
			copy(img[off:], val)
			if err := dev.S.WriteBlocks(blk, img); err != nil {
				t.Fatal(err)
			}
			if _, err := Mount(nil, dev, 0); err == nil {
				t.Fatal("Mount accepted a corrupt overflow chain")
			} else {
				t.Log(err)
			}
		})
	}
}

// A leaf's dirty mark clears when the transaction carrying its image commits,
// not when the image is handed to the journal: an insert whose device rejects
// writes from the k-th on leaves its leaves dirty, so the next transaction —
// an insert into the tail leaf — writes them too, and a remount reads back
// the extents the live filesystem holds.
func TestFailedCommitLosesNoLeaf(t *testing.T) {
	for k := 1; k <= 12; k++ {
		t.Run(fmt.Sprintf("fail_from_write_%d", k), func(t *testing.T) {
			mem := NewMemDev(1024, 16384)
			dev := &faultyDev{BlockDev: mem, writesLeft: math.MaxInt}
			fs, err := Format(nil, dev, Params{InodeCount: 256, JournalBlocks: 128, Mode: JournalMetadata})
			if err != nil {
				t.Fatal(err)
			}
			f := fragment(t, fs, "/img", 400)
			if err := f.Migrate(nil); err != nil { // full leaves
				t.Fatal(err)
			}
			if n := len(fs.inodes[f.ino].overflow); n != 8 {
				t.Fatalf("400 extents in %d leaves, want 8", n)
			}
			dev.writesLeft = k - 1
			err = f.Allocate(nil, 21, 1) // into leaf 0, which splits
			t.Logf("insert with writes failing from the %dth: %v", k, err)
			dev.writesLeft = math.MaxInt
			if err := f.Allocate(nil, 2*399-1, 1); err != nil {
				t.Fatal(err)
			}
			again, err := Mount(nil, mem, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(sameRuns(fs, again, "/img"), again.Check(nil)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
