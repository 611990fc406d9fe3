package extent

import (
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
