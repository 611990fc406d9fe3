package extfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzVolume is the small formatted volume FuzzMount corrupts, and the blocks
// an input may overwrite: the inode table, the overflow leaves of a
// three-leaf file and the journal region.
type fuzzVolume struct {
	img   []byte
	cands []int64
}

const (
	fuzzNB        = 1024
	fuzzMaxWrites = 8
)

// newFuzzVolume builds the volume: a directory holding a small file, /frag of
// 120 one-block extents packed into full leaves by a snapshot of it, and the
// snapshot. Every record in the journal is home already, so the region is
// zeroed: what Mount replays is what an input writes there, nothing else.
func newFuzzVolume(tb testing.TB) fuzzVolume {
	tb.Helper()
	dev := NewMemDev(crashBS, fuzzNB)
	fs, err := Format(nil, dev, Params{InodeCount: 64, JournalBlocks: 16, Mode: JournalMetadata})
	if err != nil {
		tb.Fatal(err)
	}
	if err := fs.Mkdir(nil, "/d", 0, 0o755); err != nil {
		tb.Fatal(err)
	}
	x, err := fs.Create(nil, "/d/x", 0, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := x.WriteAt(nil, pattern(0x5A, 3*crashBS), 0); err != nil {
		tb.Fatal(err)
	}
	frag := fragment(tb, fs, "/frag", 120)
	if err := fs.Snapshot(nil, "/frag", "/frag.snap", 0); err != nil {
		tb.Fatal(err)
	}
	var cands []int64
	for b := fs.sb.inodeTableStart; b < fs.sb.inodeTableStart+fs.sb.inodeTableBlocks; b++ {
		cands = append(cands, int64(b))
	}
	for _, l := range fs.inodes[frag.ino].overflow {
		cands = append(cands, int64(l.blk))
	}
	zero := make([]byte, crashBS)
	for b := fs.sb.journalStart; b < fs.sb.journalStart+fs.sb.journalBlocks; b++ {
		cands = append(cands, int64(b))
		if err := dev.S.WriteBlocks(int64(b), zero); err != nil {
			tb.Fatal(err)
		}
	}
	return fuzzVolume{img: snapshot(dev), cands: cands}
}

// device returns a copy of the volume with data's writes applied. data is a
// sequence of up to fuzzMaxWrites records: a byte choosing a candidate block,
// a big-endian uint16 offset into it, a big-endian uint16 length, then that
// many bytes (fewer where the block or the input ends first).
func (v fuzzVolume) device(data []byte) *MemDev {
	dev := devFrom(crashBS, fuzzNB, v.img)
	block := make([]byte, crashBS)
	for w := 0; w < fuzzMaxWrites && len(data) >= 5; w++ {
		blk := v.cands[int(data[0])%len(v.cands)]
		off := int(binary.BigEndian.Uint16(data[1:])) % crashBS
		n := min(int(binary.BigEndian.Uint16(data[3:])), crashBS-off, len(data)-5)
		if err := dev.S.ReadBlocks(blk, block); err != nil {
			panic(err)
		}
		copy(block[off:], data[5:5+n])
		if err := dev.S.WriteBlocks(blk, block); err != nil {
			panic(err)
		}
		data = data[5+n:]
	}
	return dev
}

// checkChains holds a mounted filesystem's overflow chains to what Mount
// promises of bytes it read: every leaf of a used inode holds 1 to
// ovfEntriesPerBlock entries and lies in the data region, no chain visits a
// block twice, and the leaves hold exactly the extents past the inline ones.
// (Two inodes claiming one block is fsck's to find, not Mount's.)
func (fs *FS) checkChains() error {
	per := fs.ovfEntriesPerBlock()
	for ino := range fs.inodes {
		in := &fs.inodes[ino]
		if !in.used {
			continue
		}
		seen := map[uint64]bool{}
		sum := 0
		for _, l := range in.overflow {
			if l.n < 1 || l.n > per || l.blk < fs.sb.dataStart || l.blk >= fs.sb.numBlocks || seen[l.blk] {
				return fmt.Errorf("inode %d: leaf %+v", ino, l)
			}
			seen[l.blk] = true
			sum += l.n
		}
		if spill := max(len(in.extents)-inlineExtents, 0); sum != spill {
			return fmt.Errorf("inode %d: leaves hold %d entries, %d spilled", ino, sum, spill)
		}
	}
	return nil
}

// FuzzMount overwrites a few blocks of a small formatted volume with fuzz
// bytes and mounts it: the extfs journal replay and the inode and overflow
// chain decode, over bytes the device holds. Mount must return an error or a
// filesystem, never panic or hang; a filesystem it returns holds overflow
// chains that keep checkChains' promises, and its fsck runs to an answer.
// That answer may be an error: a well-formed inode with a wrong size or a
// stray mode bit is what Check exists to report, and Mount, which runs on
// the virtual clock at every host boot, does not read directories to find
// it. The seed corpus holds a leaf count past a block's capacity and a leaf
// whose next pointer is its own block (a panic and a hang in Mount before it
// checked them), and a committed, not yet checkpointed leaf split.
func FuzzMount(f *testing.F) {
	v := newFuzzVolume(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := Mount(nil, v.device(data), 0)
		if err != nil {
			return
		}
		if err := fs.checkChains(); err != nil {
			t.Fatalf("Mount accepted a chain it should refuse: %v", err)
		}
		_ = fs.Check(nil)
	})
}

// readFuzzSeed decodes one corpus file of testdata/fuzz/FuzzMount.
func readFuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzMount", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// The checked-in seeds still reach what they were written for on today's
// volume: the two corrupt leaves are refused, and the committed leaf split is
// replayed, leaving /frag one extent longer, in one leaf more, and fsck clean.
func TestFuzzMountSeeds(t *testing.T) {
	v := newFuzzVolume(t)
	base, err := Mount(nil, devFrom(crashBS, fuzzNB, v.img), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := extentsOf(t, base, "/frag")
	ino, err := base.resolve(nil, "/frag", 0)
	if err != nil {
		t.Fatal(err)
	}
	leaves := len(base.inodes[ino].overflow)
	for _, name := range []string{"leaf-count-past-a-block", "next-loops-to-its-own-block"} {
		if _, err := Mount(nil, v.device(readFuzzSeed(t, name)), 0); err == nil {
			t.Errorf("%s: Mount accepted it", name)
		}
	}
	fs, err := Mount(nil, v.device(readFuzzSeed(t, "committed-leaf-split")), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := extentsOf(t, fs, "/frag")
	if len(got) != len(want)+1 || len(fs.inodes[ino].overflow) != leaves+1 {
		t.Errorf("after the replayed split /frag has %d extents in %d leaves; want %d in %d", len(got), len(fs.inodes[ino].overflow), len(want)+1, leaves+1)
	}
	if err := errors.Join(fs.checkChains(), fs.Check(nil)); err != nil {
		t.Error(err)
	}
}
