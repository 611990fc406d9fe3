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
	before, _, err := fs.Runs(nil, "/clone")
	if err != nil {
		t.Fatal(err)
	}
	// First block, a middle window, the last block: each splits an extent of
	// the source.
	for _, r := range [][2]uint64{{0, 1}, {20, 3}, {63, 1}} {
		if err := fs.BreakRange(nil, "/src", r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	src, _, err := fs.Runs(nil, "/src")
	if err != nil {
		t.Fatal(err)
	}
	if len(src) <= len(before) {
		t.Fatalf("source still has %d extents after three breaks", len(src))
	}
	after, _, err := fs.Runs(nil, "/clone")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, before) {
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

// Allocation ceiling, in the style of internal/sim/alloc_test.go: resolving
// the path allocates (its components, each directory's image), copying the
// extent map into a buffer that is large enough does not. Stat resolves the
// same path and copies nothing.
func TestAppendRunsAddsNoAllocation(t *testing.T) {
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
	buf := make([]extent.Run, 0, 512)
	resolve := testing.AllocsPerRun(100, func() {
		if _, err := fs.Stat(nil, "/frag", 0); err != nil {
			t.Fatal(err)
		}
	})
	appendRuns := testing.AllocsPerRun(100, func() {
		runs, _, err := fs.AppendRuns(nil, "/frag", buf[:0])
		if err != nil || len(runs) != 300 || &runs[0] != &buf[:1][0] {
			t.Fatalf("AppendRuns: %d runs, %v (or not in the caller's buffer)", len(runs), err)
		}
	})
	if appendRuns > resolve {
		t.Errorf("AppendRuns into a large-enough buffer allocates %v per call, resolving the path alone %v", appendRuns, resolve)
	}
	runs := testing.AllocsPerRun(100, func() {
		if _, _, err := fs.Runs(nil, "/frag"); err != nil {
			t.Fatal(err)
		}
	})
	if runs != resolve+1 {
		t.Errorf("Runs allocates %v per call, want the path's %v plus the copy", runs, resolve)
	}
}
