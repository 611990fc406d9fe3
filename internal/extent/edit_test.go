package extent

import (
	"slices"
	"testing"

	"nesc/internal/hostmem"
)

// checkMaps fails unless the tree maps exactly runs.
func checkMaps(t *testing.T, mem *hostmem.Memory, tr *Tree, runs []Run) {
	t.Helper()
	if got, err := CollectRuns(mem, tr.Root(), tr.Fanout()); err != nil || !slices.Equal(got, runs) {
		t.Fatalf("tree maps %d runs (%v), want %d", len(got), err, len(runs))
	}
}

// A change to one run writes the path to it — one node a level, at most
// depth+1 — however long the mapping is; Rebuild writes every node. The
// replaced nodes are the only ones freed: host memory holds exactly the
// tree's nodes before and after.
func TestEditWritesThePathNotTheTree(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 10000} {
		mem := hostmem.New(64 << 20)
		runs := oneBlockRuns(n, 5000)
		tr := mustBuild(t, mem, runs, DefaultFanout)
		depth, err := tr.Depth()
		if err != nil {
			t.Fatal(err)
		}
		// The middle run's blocks move, as a CoW break of a one-block extent
		// moves them.
		mid := &runs[n/2]
		mid.Physical, mid.Flags = 900000, 0
		before, nodes := tr.written, tr.Nodes()
		if err := tr.Edit(runs, mid.Logical, mid.End()); err != nil {
			t.Fatal(err)
		}
		if got := tr.written - before; got > depth+1 {
			t.Errorf("%d runs: a one-run edit wrote %d nodes, want at most depth+1 = %d", n, got, depth+1)
		}
		if tr.Nodes() != nodes || mem.LiveAllocs() != nodes {
			t.Errorf("%d runs: %d nodes after the edit (%d allocations), were %d", n, tr.Nodes(), mem.LiveAllocs(), nodes)
		}
		checkMaps(t, mem, tr, runs)
		before = tr.written
		if err := tr.Rebuild(runs); err != nil {
			t.Fatal(err)
		}
		if got := tr.written - before; got != tr.Nodes() {
			t.Errorf("%d runs: Rebuild wrote %d nodes, want all %d", n, got, tr.Nodes())
		}
	}
}

// An edit in steady state costs no garbage, like Rebuild.
func TestEditAllocations(t *testing.T) {
	mem := newMem()
	runs := oneBlockRuns(4096, 1000)
	tr := mustBuild(t, mem, runs, DefaultFanout)
	i := 0
	edit := func() {
		r := &runs[(i*37)%len(runs)]
		r.Physical ^= 1 << 30
		i++
		if err := tr.Edit(runs, r.Logical, r.End()); err != nil {
			t.Fatal(err)
		}
	}
	edit()
	if got := testing.AllocsPerRun(200, edit); got != 0 {
		t.Errorf("Edit allocates %v per call after the first, want 0", got)
	}
	checkMaps(t, mem, tr, runs)
}

// The walk-in-flight guarantee: a walk that read the old root before a change
// and goes on from the child address it found there resolves the mapping from
// before the change, across an Edit exactly as across a Rebuild. The change
// allocates its nodes before it frees the ones it replaces, and freeing leaves
// their bytes in place until the memory is handed out again.
func TestWalkInFlightResolvesThePreChangeMapping(t *testing.T) {
	for _, change := range []string{"edit", "rebuild"} {
		mem := newMem()
		runs := oneBlockRuns(1000, 5000) // three levels
		tr := mustBuild(t, mem, runs, DefaultFanout)
		old := runs[500]
		img := make([]byte, NodeBytes(DefaultFanout))
		var walk Resolution
		if err := mem.Read(tr.Root(), img); err != nil {
			t.Fatal(err)
		}
		next, err := walk.Step(img, old.Logical)
		if err != nil || next == 0 {
			t.Fatalf("the root step ended the walk: %+v, %v", walk, err)
		}

		runs[500].Physical = 777777
		if change == "edit" {
			err = tr.Edit(runs, old.Logical, old.End())
		} else {
			err = tr.Rebuild(runs)
		}
		if err != nil {
			t.Fatal(err)
		}
		for addr := next; addr != 0; {
			if err := mem.Read(addr, img); err != nil {
				t.Fatal(err)
			}
			if addr, err = walk.Step(img, old.Logical); err != nil {
				t.Fatalf("%s: the walk in flight failed: %v", change, err)
			}
		}
		if !walk.Mapped || walk.PLBA != old.Physical || walk.Levels != 3 {
			t.Errorf("%s: the walk in flight resolved %+v, want the old pLBA %d in 3 levels", change, walk, old.Physical)
		}
		if res, err := Lookup(mem, tr.Root(), tr.Fanout(), old.Logical); err != nil || res.PLBA != 777777 {
			t.Errorf("%s: a walk from the new root resolved %+v (%v), want the new pLBA", change, res, err)
		}
	}
}

// An edit that runs out of host memory part way leaves the tree as it was
// and nothing allocated; the next edit then rebuilds the tree in full, so the
// change it missed is not lost.
func TestEditIsTransactional(t *testing.T) {
	mem := hostmem.New(1 << 20)
	runs := oneBlockRuns(1000, 5000)
	tr := mustBuild(t, mem, runs, DefaultFanout)
	root, nodes := tr.Root(), tr.Nodes()
	filler := exhaust(mem, NodeBytes(DefaultFanout), 1) // room for one node: the edit needs three
	next := slices.Clone(runs)
	next[300].Physical = 1 << 30
	if err := tr.Edit(next, next[300].Logical, next[300].End()); err == nil {
		t.Fatal("an edit with room for one node of three succeeded")
	}
	if tr.Root() != root || tr.Nodes() != nodes || mem.LiveAllocs() != nodes+len(filler) {
		t.Fatalf("the failed edit moved the tree: root %#x -> %#x, nodes %d -> %d, %d allocations", root, tr.Root(), nodes, tr.Nodes(), mem.LiveAllocs())
	}
	checkMaps(t, mem, tr, runs)
	for _, a := range filler {
		if err := mem.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	// Another block changes; the edit for it must bring in both.
	next[700].Physical = 1<<30 + 1
	before := tr.written
	if err := tr.Edit(next, next[700].Logical, next[700].End()); err != nil {
		t.Fatal(err)
	}
	if got := tr.written - before; got != tr.Nodes() {
		t.Errorf("the edit after a failed one wrote %d nodes, want a rebuild of all %d", got, tr.Nodes())
	}
	checkMaps(t, mem, tr, next)
}

// A pruned tree cannot be edited in place: the next edit regenerates all of
// it, so a lookup in another pruned range no longer resolves Pruned.
func TestEditOfAPrunedTreeRebuildsIt(t *testing.T) {
	mem := newMem()
	runs := oneBlockRuns(1000, 5000)
	tr := mustBuild(t, mem, runs, DefaultFanout)
	if freed, err := tr.Prune(1000); err != nil || freed == 0 {
		t.Fatalf("Prune freed %d (%v)", freed, err)
	}
	if res, _ := Lookup(mem, tr.Root(), tr.Fanout(), runs[999].Logical); !res.Pruned {
		t.Fatalf("the last run is not pruned: %+v", res)
	}
	if err := tr.Edit(runs, runs[0].Logical, runs[0].End()); err != nil {
		t.Fatal(err)
	}
	if res, _ := Lookup(mem, tr.Root(), tr.Fanout(), runs[999].Logical); !res.Mapped || res.PLBA != runs[999].Physical {
		t.Fatalf("after an edit of the first run the last resolves %+v", res)
	}
	if tr.Nodes() != mem.LiveAllocs() {
		t.Fatalf("tree says %d nodes, memory holds %d", tr.Nodes(), mem.LiveAllocs())
	}
	checkMaps(t, mem, tr, runs)
}

// exhaust allocates all of mem but keep node-sized holes, in chunks of at
// least nodeBytes, and returns the chunks.
func exhaust(mem *hostmem.Memory, nodeBytes int64, keep int) []hostmem.Addr {
	var holes, held []hostmem.Addr
	for range keep {
		if a, err := mem.Alloc(nodeBytes, 8); err == nil {
			holes = append(holes, a)
		}
	}
	for size := int64(1 << 19); ; size /= 2 {
		size = max(size, nodeBytes)
		for {
			a, err := mem.Alloc(size, 8)
			if err != nil {
				break
			}
			held = append(held, a)
		}
		if size == nodeBytes {
			break
		}
	}
	for _, a := range holes {
		if err := mem.Free(a); err != nil {
			panic(err)
		}
	}
	return held
}
