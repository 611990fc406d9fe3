package extent

import (
	"slices"
	"sort"
	"testing"
	"time"

	"nesc/internal/hostmem"
)

// fuzzNodeAddr is where FuzzStep places its node image: the first allocation
// of a fresh memory, so a seed can point an entry at the node itself.
const fuzzNodeAddr = 64

// selfLoop is a depth-1 node whose one entry covers every vLBA and points at
// the node itself (placed at fuzzNodeAddr): the tree a hostile or buggy host
// could write to make an unbounded walk spin.
func selfLoop() []byte {
	b := make([]byte, NodeBytes(DefaultFanout))
	serializeNode(b, 1, DefaultFanout, []Entry{{FirstLogical: 0, Count: 1 << 31, Ptr: fuzzNodeAddr}})
	return b
}

// FuzzStep feeds the walk's one step arbitrary node bytes — the device parses
// whatever the host wrote. It must not panic, must agree with ParseNode + Find
// on every image, and a walk over a memory whose node is the input must end
// within the depth its root claims, whatever the entries point at.
func FuzzStep(f *testing.F) {
	// Images of real trees: a full leaf, an internal root, a root with a
	// pruned child, a write-protected leaf.
	node := func(runs []Run, prune int) []byte {
		mem := hostmem.New(1 << 20)
		tr, err := Build(mem, runs, DefaultFanout)
		if err != nil {
			f.Fatal(err)
		}
		if prune > 0 {
			if _, err := tr.Prune(prune); err != nil {
				f.Fatal(err)
			}
		}
		b := make([]byte, NodeBytes(DefaultFanout))
		if err := mem.Read(tr.Root(), b); err != nil {
			f.Fatal(err)
		}
		return b
	}
	var leaf, many []Run
	for i := uint64(0); i < 4*DefaultFanout; i++ {
		r := Run{Logical: 3 * i, Physical: 1000 + 2*i, Count: 2}
		many = append(many, r)
		if i < DefaultFanout {
			leaf = append(leaf, r)
		}
	}
	f.Add(node(leaf, 0), uint64(7))
	f.Add(node(many, 0), uint64(61))
	f.Add(node(many, 2), uint64(4))
	f.Add(node([]Run{{Logical: 8, Physical: 512, Count: 64, Flags: FlagProtected}}, 0), uint64(9))
	f.Add(selfLoop(), uint64(5))

	f.Fuzz(func(t *testing.T, b []byte, vlba uint64) {
		var res Resolution
		next, err := res.Step(b, vlba)
		n, perr := ParseNode(b)
		if (err == nil) != (perr == nil) {
			t.Fatalf("Step error %v, ParseNode error %v", err, perr)
		}
		if err != nil {
			return
		}
		e, ok := n.Find(vlba)
		var want Resolution
		var wantNext hostmem.Addr
		switch {
		case !ok:
			want.Hole = true
		case n.Leaf():
			want.Mapped, want.Protected = true, e.Flags&FlagProtected != 0
			want.PLBA = e.Ptr + (vlba - e.FirstLogical)
			want.Extent = Run{Logical: e.FirstLogical, Physical: e.Ptr, Count: uint64(e.Count), Flags: e.Flags}
		case e.Ptr == 0:
			want.Pruned = true
		default:
			wantNext = hostmem.Addr(e.Ptr)
		}
		if res.Hole != want.Hole || res.Mapped != want.Mapped || res.Pruned != want.Pruned || res.Protected != want.Protected ||
			res.PLBA != want.PLBA || res.Extent != want.Extent || res.Levels != 1 || next != wantNext {
			t.Fatalf("Step = %+v next %#x, ParseNode+Find give %+v next %#x", res, next, want, wantNext)
		}

		// The walk: the image is the root (zero-padded or cut to a node's size)
		// and the only node; its pointers lead back to it or nowhere.
		mem := hostmem.New(1 << 16)
		root := mem.MustAlloc(NodeBytes(DefaultFanout), 64)
		if root != fuzzNodeAddr {
			t.Fatalf("node placed at %#x, the seeds assume %#x", root, fuzzNodeAddr)
		}
		img := make([]byte, NodeBytes(DefaultFanout))
		copy(img, b)
		if err := mem.Write(root, img); err != nil {
			t.Fatal(err)
		}
		var walk Resolution
		for addr := root; addr != 0; {
			if walk.Levels > n.Depth {
				t.Fatalf("walk from a depth-%d root still going after %d nodes", n.Depth, walk.Levels)
			}
			if mem.Read(addr, img) != nil {
				break
			}
			if addr, err = walk.Step(img, vlba); err != nil {
				break
			}
		}
		// Lookup is that loop; it must end the same way.
		got, lerr := Lookup(mem, root, DefaultFanout, vlba)
		if got != walk || (lerr == nil) != (walk.Hole || walk.Mapped || walk.Pruned) {
			t.Fatalf("Lookup = %+v error %v, the stepped walk %+v", got, lerr, walk)
		}
	})
}

// TestLookupRejectsCycle: a node that points at itself ends the walk with an
// error instead of spinning it.
func TestLookupRejectsCycle(t *testing.T) {
	mem := hostmem.New(1 << 16)
	root := mem.MustAlloc(NodeBytes(DefaultFanout), 64)
	if err := mem.Write(root, selfLoop()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var res Resolution
	var err error
	go func() {
		res, err = Lookup(mem, root, DefaultFanout, 5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Lookup through a self-referencing node is still walking after 5 s")
	}
	if err == nil || res.Levels != 1 {
		t.Fatalf("Lookup through a self-referencing node: %+v, error %v; want an error at the second node", res, err)
	}
}

// FuzzEdit is Edit's differential test. The input picks a fanout and a
// starting mapping, then, three bytes at a time, a sequence of the changes
// the host makes to a file's map — a new run in a hole, a CoW break splitting
// one block out of a run, two runs merging, a run deleted, a call that
// changes nothing — each edited in over the one block a miss would name, plus
// a step that leaves host memory room for at most three nodes for the next
// edit. After every edit the tree must map exactly the runs, resolve every
// run boundary ±1 field for field as a fresh Build of them does, stay within
// one level of its depth and twice its nodes, and hold exactly its nodes in
// host memory. An edit that ran out of memory must have left the tree as it
// was, and the next one must bring it up to date.
func FuzzEdit(f *testing.F) {
	f.Fuzz(editSteps)
}

func editSteps(t *testing.T, in []byte) {
	if len(in) < 2 {
		return
	}
	in = in[:min(len(in), 2+3*256)] // every step checks the whole mapping
	fanout := 2 + int(in[0]%9)
	nb := NodeBytes(fanout)
	mem, ref := hostmem.New(1<<20), hostmem.New(1<<22)
	var runs []Run
	for i := range int(in[1]) % 48 {
		runs = append(runs, Run{Logical: uint64(4 * i), Physical: uint64(1000 + 4*i), Count: 1 + uint64(i%3)})
	}
	tr, err := Build(mem, runs, fanout)
	if err != nil {
		t.Fatal(err)
	}
	phys, starve := uint64(1<<20), -1
	for in = in[2:]; len(in) >= 3; in = in[3:] {
		kind, pos, arg := int(in[0]%6), int(in[1]), uint64(in[2])
		if kind == 5 {
			starve = int(arg % 4)
			continue
		}
		next, lo, hi := change(runs, kind, pos, arg, &phys)
		var filler []hostmem.Addr
		if starve >= 0 {
			filler, starve = exhaust(mem, nb, starve), -1
		}
		root, nodes := tr.Root(), tr.Nodes()
		if err := tr.Edit(next, lo, hi); err != nil {
			if filler == nil {
				t.Fatalf("edit over [%d, %d) failed with memory to spare: %v", lo, hi, err)
			}
			if tr.Root() != root || tr.Nodes() != nodes || mem.LiveAllocs() != nodes+len(filler) {
				t.Fatalf("a failed edit moved the tree: root %#x -> %#x, nodes %d -> %d", root, tr.Root(), nodes, tr.Nodes())
			}
			if got, err := CollectRuns(mem, root, fanout); err != nil || !slices.Equal(got, runs) {
				t.Fatalf("a failed edit changed the mapping to %+v (%v), was %+v", got, err, runs)
			}
			for _, a := range filler {
				if err := mem.Free(a); err != nil {
					t.Fatal(err)
				}
			}
			filler = nil
			if err := tr.Edit(next, lo, hi); err != nil {
				t.Fatalf("the edit after a failed one: %v", err)
			}
		}
		for _, a := range filler {
			if err := mem.Free(a); err != nil {
				t.Fatal(err)
			}
		}
		runs = next
		checkAgainstBuild(t, mem, ref, tr, runs)
	}
}

// change applies one FuzzEdit step to a copy of runs and returns it with the
// one-block range a miss over the change would name.
func change(runs []Run, kind, pos int, arg uint64, phys *uint64) (next []Run, lo, hi uint64) {
	next = slices.Clone(runs)
	fresh := func(n uint64) uint64 { *phys += n + 1; return *phys - n - 1 }
	switch {
	case kind == 0: // a new run in a hole
		v := uint64(pos)*3 + arg%3
		i := sort.Search(len(next), func(i int) bool { return next[i].End() > v })
		if i < len(next) && next[i].Logical <= v {
			return next, v, v + 1 // mapped already: a call that changed nothing
		}
		end := v + 1 + arg%4
		if i < len(next) {
			end = min(end, next[i].Logical)
		}
		r := Run{Logical: v, Physical: fresh(end - v), Count: end - v}
		if arg&8 != 0 {
			r.Flags = FlagProtected
		}
		return slices.Insert(next, i, r), v, v + 1
	case len(next) == 0:
		return next, uint64(pos), uint64(pos) + 1
	case kind == 1: // a CoW break: one block of a run gets a private copy
		i := pos % len(next)
		r := next[i]
		o := arg % r.Count
		parts := []Run{{Logical: r.Logical + o, Physical: fresh(1), Count: 1}}
		if o > 0 {
			parts = slices.Insert(parts, 0, Run{Logical: r.Logical, Physical: r.Physical, Count: o, Flags: r.Flags})
		}
		if o+1 < r.Count {
			parts = append(parts, Run{Logical: r.Logical + o + 1, Physical: r.Physical + o + 1, Count: r.Count - o - 1, Flags: r.Flags})
		}
		return slices.Replace(next, i, i+1, parts...), r.Logical + o, r.Logical + o + 1
	case kind == 2 && len(next) > 1: // a run grows over the hole after it into the next
		i := pos % (len(next) - 1)
		a, b := next[i], next[i+1]
		next[i] = Run{Logical: a.Logical, Physical: a.Physical, Count: b.End() - a.Logical, Flags: a.Flags}
		return slices.Delete(next, i+1, i+2), a.End(), a.End() + 1
	case kind == 3: // a run goes
		i := pos % len(next)
		v := next[i].Logical + arg%next[i].Count
		return slices.Delete(next, i, i+1), v, v + 1
	default: // a call that changed nothing
		v := uint64(pos) * 2
		return next, v, v + 1 + arg%8
	}
}

// checkAgainstBuild holds tr, which mem holds alone, to a fresh Build of runs
// in ref.
func checkAgainstBuild(t *testing.T, mem, ref *hostmem.Memory, tr *Tree, runs []Run) {
	t.Helper()
	if mem.LiveAllocs() != tr.Nodes() {
		t.Fatalf("tree says %d nodes, host memory holds %d allocations", tr.Nodes(), mem.LiveAllocs())
	}
	if got, err := CollectRuns(mem, tr.Root(), tr.Fanout()); err != nil || !slices.Equal(got, runs) {
		t.Fatalf("tree maps %+v (%v), want %+v", got, err, runs)
	}
	fresh, err := Build(ref, runs, tr.Fanout())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Free()
	depth, err := tr.Depth()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.Depth()
	if depth > want+1 || tr.Nodes() > 2*fresh.Nodes() {
		t.Fatalf("%d runs: depth %d and %d nodes, Build makes %d and %d", len(runs), depth, tr.Nodes(), want, fresh.Nodes())
	}
	for _, r := range runs {
		for _, v := range [4]uint64{r.Logical - 1, r.Logical, r.End() - 1, r.End()} {
			got, gerr := Lookup(mem, tr.Root(), tr.Fanout(), v)
			wantRes, werr := Lookup(ref, fresh.Root(), fresh.Fanout(), v)
			// How deep a walk goes before it finds a hole is the shape's.
			got.Levels, got.depth, wantRes.Levels, wantRes.depth = 0, 0, 0, 0
			if got != wantRes || (gerr == nil) != (werr == nil) {
				t.Fatalf("vlba %d resolves %+v (%v), a fresh Build %+v (%v)", v, got, gerr, wantRes, werr)
			}
		}
	}
}
