package extfs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"nesc/internal/extent"
)

// spliceModel is spliceExtent as it was before it edited the list in place:
// copy everything out around the replacement.
func spliceModel(exts []extent.Run, idx int, repl []extent.Run) []extent.Run {
	out := make([]extent.Run, 0, len(exts)-1+len(repl))
	out = append(out, exts[:idx]...)
	out = append(out, repl...)
	out = append(out, exts[idx+1:]...)
	return out
}

// The in-place splice equals the copy-out model at the first, a middle and
// the last index, for the one to four runs breakOne hands it (left remainder,
// fresh runs, right remainder), with and without spare capacity.
func TestSpliceExtentMatchesCopyOutModel(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(12) + 1
		exts := make([]extent.Run, n, n+rng.Intn(2)*8)
		for i := range exts {
			exts[i] = extent.Run{Logical: uint64(i) * 100, Physical: 5000 + uint64(i)*100, Count: 100, Flags: extent.FlagProtected}
		}
		for _, idx := range []int{0, n / 2, n - 1} {
			e := exts[idx]
			repl := make([]extent.Run, rng.Intn(4)+1)
			for j := range repl {
				repl[j] = extent.Run{Logical: e.Logical + uint64(j)*10, Physical: rng.Uint64() % 1e6, Count: 10}
			}
			want := spliceModel(exts, idx, repl)
			in := &inode{extents: append(make([]extent.Run, 0, cap(exts)), exts...)}
			spliceExtent(in, idx, repl)
			if !slices.Equal(in.extents, want) {
				t.Fatalf("iter %d: %d extents, splice at %d of %d runs:\n got %+v\nwant %+v", iter, n, idx, len(repl), in.extents, want)
			}
		}
	}
}

// Breaking the source's shared extents edits the source's list where it lies;
// the clone's list, copied at snapshot time, must not move.
func TestBreakLeavesCloneExtentsUntouched(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/src", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(18)).Read(data)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(nil, "/src", "/clone", 100); err != nil {
		t.Fatal(err)
	}
	before := extentsOf(t, fs, "/clone")
	// First block, a middle window, the last block: each splits an extent of
	// the source.
	for _, r := range [][2]uint64{{0, 1}, {20, 3}, {63, 1}} {
		if err := f.BreakShare(nil, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(f.Extents()); n <= len(before) {
		t.Fatalf("source still has %d extents after three breaks", n)
	}
	if after := extentsOf(t, fs, "/clone"); !slices.Equal(after, before) {
		t.Fatalf("clone's extents moved when the source broke sharing:\n got %+v\nwant %+v", after, before)
	}
	clone, err := fs.Open(nil, "/clone", 100, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBack(t, clone), data) || !bytes.Equal(readBack(t, f), data) {
		t.Fatal("contents changed by a break that wrote nothing")
	}
	mustCheck(t, fs)
}

// Reading a file's extent map through its handle is no filesystem
// operation: it resolves no path, takes no lock, allocates nothing and counts
// no Ops — it is the inode's own list, so it shows the next allocation
// on the next call without a path lookup.
func TestExtentsIsNoOperation(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/frag", 100, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ { // every other block: 300 extents
		if _, err := f.WriteAt(nil, []byte{1}, int64(i)*2*1024); err != nil {
			t.Fatal(err)
		}
	}
	ops := fs.Ops
	if allocs := testing.AllocsPerRun(100, func() {
		if n := len(f.Extents()); n != 300 {
			t.Fatalf("Extents: %d runs, want 300", n)
		}
	}); allocs != 0 {
		t.Errorf("Extents allocates %v per call, want 0", allocs)
	}
	if fs.Ops != ops {
		t.Errorf("Extents counted %d filesystem operations", fs.Ops-ops)
	}
	if err := f.Allocate(nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := f.Extents(); len(got) != 301 || got[1].Logical != 1 {
		t.Errorf("after filling the first hole Extents has %d runs, the second %+v; want 301, the second at block 1", len(got), got[1])
	}
}
