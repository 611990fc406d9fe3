package extent

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"nesc/internal/hostmem"
)

// oneBlockRuns returns n one-block runs at every other logical block, so no
// two merge and every gap is a hole.
func oneBlockRuns(n int, physBase uint64) []Run {
	runs := make([]Run, n)
	for i := range runs {
		runs[i] = Run{Logical: uint64(i) * 2, Physical: physBase + uint64(i), Count: 1}
	}
	return runs
}

// A Rebuild that runs out of host memory half way leaves the tree exactly as
// it was: the device still walks the old root, so Runs() must still describe
// the old nodes, and nothing the failed attempt allocated may stay behind.
func TestRebuildIsTransactional(t *testing.T) {
	const n = 1000 // 100 leaves + 10 + 1 nodes
	oldRuns := oneBlockRuns(n, 5000)
	// Room for one tree and half of another.
	mem := hostmem.New(64 + 111*NodeBytes(DefaultFanout)*3/2)
	tr := mustBuild(t, mem, oldRuns, DefaultFanout)
	root, nodes, live, free := tr.Root(), tr.Nodes(), mem.LiveAllocs(), mem.FreeBytes()

	if err := tr.Rebuild(oneBlockRuns(n, 90000)); err == nil {
		t.Fatal("a rebuild that cannot fit next to the old tree succeeded")
	}
	if tr.Root() != root || tr.Nodes() != nodes {
		t.Fatalf("failed rebuild moved the tree: root %#x -> %#x, nodes %d -> %d", root, tr.Root(), nodes, tr.Nodes())
	}
	if got := tr.Runs(); !slices.Equal(got, oldRuns) {
		t.Fatalf("failed rebuild changed Runs(): %d runs, first %+v; want the old %d, first %+v", len(got), got[0], len(oldRuns), oldRuns[0])
	}
	if mem.LiveAllocs() != live || mem.FreeBytes() != free {
		t.Fatalf("failed rebuild leaked: %d allocations / %d free bytes, were %d / %d", mem.LiveAllocs(), mem.FreeBytes(), live, free)
	}
	for _, r := range oldRuns {
		res, err := Lookup(mem, root, DefaultFanout, r.Logical)
		if err != nil || !res.Mapped || res.PLBA != r.Physical {
			t.Fatalf("old root no longer resolves vlba %d: %+v, %v", r.Logical, res, err)
		}
	}
	// The tree is not wedged: a mapping that fits goes through.
	small := oneBlockRuns(n/4, 90000)
	if err := tr.Rebuild(small); err != nil {
		t.Fatal(err)
	}
	if got, err := CollectRuns(mem, tr.Root(), tr.Fanout()); err != nil || !slices.Equal(got, small) {
		t.Fatalf("rebuild after a failed one: %d runs, %v", len(got), err)
	}
}

// Rebuild recycles the previous generation's run buffer and node list; a
// shorter and then a longer mapping must neither leak a recycled slot nor free
// one twice (Free panics on a double free), and must not touch the caller's
// slice even when it has runs to drop or split.
func TestRebuildRecyclesBuffers(t *testing.T) {
	mem := newMem()
	tr := mustBuild(t, mem, oneBlockRuns(500, 1000), DefaultFanout)
	check := func(want []Run) {
		t.Helper()
		got, err := CollectRuns(mem, tr.Root(), tr.Fanout())
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("CollectRuns: %d runs, %v; want %d", len(got), err, len(want))
		}
		if !slices.Equal(tr.Runs(), want) {
			t.Fatalf("Runs() disagrees with the mapping of %d runs", len(want))
		}
		if tr.Nodes() != mem.LiveAllocs() || tr.ResidentBytes() != mem.AllocBytes {
			t.Fatalf("tree says %d nodes / %d bytes, memory %d / %d", tr.Nodes(), tr.ResidentBytes(), mem.LiveAllocs(), mem.AllocBytes)
		}
	}
	for _, n := range []int{500, 37, 0, 2100, 37, 2100} {
		in := oneBlockRuns(n, uint64(7000+n))
		keep := slices.Clone(in)
		if err := tr.Rebuild(in); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(in, keep) {
			t.Fatalf("Rebuild modified the caller's %d runs", n)
		}
		check(in)
	}

	// An empty run is dropped and an over-long one split — in the tree's copy.
	in := []Run{
		{Logical: 0, Physical: 10, Count: 4},
		{Logical: 4, Physical: 99, Count: 0},
		{Logical: 8, Physical: 1 << 40, Count: math.MaxUint32 + 5, Flags: FlagProtected},
	}
	keep := slices.Clone(in)
	if err := tr.Rebuild(in); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(in, keep) {
		t.Fatalf("Rebuild modified the caller's slice: %+v", in)
	}
	check([]Run{
		{Logical: 0, Physical: 10, Count: 4},
		{Logical: 8, Physical: 1 << 40, Count: math.MaxUint32, Flags: FlagProtected},
		{Logical: 8 + math.MaxUint32, Physical: 1<<40 + math.MaxUint32, Count: 5, Flags: FlagProtected},
	})
	// An invalid mapping is refused before anything moves.
	before := tr.Runs()
	if err := tr.Rebuild([]Run{{Logical: 5, Count: 5}, {Logical: 7, Count: 1}}); err == nil {
		t.Fatal("overlapping runs accepted")
	}
	check(before)
	tr.Free()
	if mem.LiveAllocs() != 0 {
		t.Fatalf("%d allocations live after Free", mem.LiveAllocs())
	}
}

// Allocation ceilings, in the style of internal/sim/alloc_test.go.
func TestRebuildAndLookupAllocations(t *testing.T) {
	mem := newMem()
	runs := oneBlockRuns(4096, 1000)
	tr := mustBuild(t, mem, runs, DefaultFanout)
	rebuild := func() {
		if err := tr.Rebuild(runs); err != nil {
			t.Fatal(err)
		}
	}
	rebuild()
	if got := testing.AllocsPerRun(20, rebuild); got != 0 {
		t.Errorf("Rebuild of 4096 runs allocates %v per call after the first, want 0", got)
	}
	vlba := uint64(0)
	lookup := func() {
		if _, err := Lookup(mem, tr.Root(), tr.Fanout(), vlba%9000); err != nil {
			t.Fatal(err)
		}
		vlba += 37
	}
	// The one allocation is the node image Lookup reads into.
	if got := testing.AllocsPerRun(200, lookup); got > 1 {
		t.Errorf("Lookup allocates %v per call, ceiling 1", got)
	}
}

// Property: searching the serialized entries in place gives what decoding the
// node and searching the copy gives — same entry, same hole, same refusal.
func TestFindInNodeMatchesParseNode(t *testing.T) {
	same := func(b []byte, vlba uint64) {
		t.Helper()
		e, depth, ok, err := findInNode(b, vlba)
		leaf := depth == 0
		n, perr := ParseNode(b)
		if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
			t.Fatalf("findInNode error %v, ParseNode %v", err, perr)
		}
		if err != nil {
			return
		}
		we, wok := n.Find(vlba)
		if e != we || ok != wok || leaf != n.Leaf() {
			t.Fatalf("vlba %d: findInNode = %+v leaf %v ok %v, ParseNode.Find = %+v leaf %v ok %v", vlba, e, leaf, ok, we, n.Leaf(), wok)
		}
	}
	// The malformed images of TestParseNodeRejectsGarbage, and a truncated one.
	same(nil, 0)
	garbage := make([]byte, 64)
	same(garbage, 0)
	garbage[0], garbage[1] = 0xE5, 0xC0
	garbage[5], garbage[7] = 9, 2 // count 9 > capacity 2
	same(garbage, 0)
	garbage[7] = 9 // nine entries do not fit in 64 bytes
	same(garbage, 0)

	rng := rand.New(rand.NewSource(18))
	b := make([]byte, NodeBytes(DefaultFanout))
	for iter := 0; iter < 2000; iter++ {
		ents := make([]Entry, rng.Intn(DefaultFanout+1)) // count 0 included
		next := uint64(rng.Intn(4))
		for i := range ents {
			ents[i] = Entry{FirstLogical: next, Count: uint32(rng.Intn(6) + 1), Flags: uint32(rng.Intn(2)), Ptr: rng.Uint64()}
			next += uint64(ents[i].Count) + uint64(rng.Intn(3)) // gaps between entries
		}
		serializeNode(b, rng.Intn(3), DefaultFanout, ents)
		for vlba := uint64(0); vlba <= next+1; vlba++ {
			same(b, vlba)
		}
		same(b, math.MaxUint64)
	}
}
