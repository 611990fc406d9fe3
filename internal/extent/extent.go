// Package extent implements the NeSC extent tree (paper §IV-B, Fig. 4): the
// per-VF translation table the hypervisor serializes into host memory and
// the device walks with DMA reads to translate virtual LBAs (vLBA) into
// physical LBAs (pLBA).
//
// A tree node is a fixed-size record:
//
//	header (8 bytes, big-endian):
//	    magic    uint16  0xE5C0
//	    depth    uint16  0 = leaf (extent pointers), >0 = internal (node pointers)
//	    count    uint16  valid entries
//	    capacity uint16  entry slots in this node
//	entries (24 bytes each):
//	    firstLogical uint64  first vLBA covered by the entry
//	    count        uint32  number of logical blocks covered
//	    flags        uint32  leaf: bit 0 = write-protected (copy-on-write
//	                         shared extent; device writes trap to the host)
//	    pointer      uint64  leaf: first pLBA of the extent
//	                         internal: host address of the child node,
//	                                   0 (NULL) = subtree pruned by the host
//
// The layout mirrors the paper's Fig. 4b: an extent pointer is
// (first logical block, number of blocks, first physical block); a node
// pointer is (first logical block, number of blocks, next node pointer), and
// a NULL next-node pointer marks a subtree the hypervisor pruned under
// memory pressure.
//
// The hypervisor changes a tree in parts, as the paper's §IV-B has it: a miss
// is an Edit, which copies the path to the range that changed and shares the
// rest; a change to the whole file is a Rebuild, which bulk-loads the tree
// afresh; Prune NULLs subtree pointers in place. Every change writes its new
// nodes before it frees the old ones, so a walk in flight from the old root
// resolves the old mapping.
package extent

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"nesc/internal/hostmem"
)

const (
	// Magic marks a valid serialized node.
	Magic = 0xE5C0
	// HeaderSize and EntrySize define the wire layout.
	HeaderSize = 8
	EntrySize  = 24
	// DefaultFanout yields 248-byte nodes, close to the 256-byte fetch unit
	// a hardware walker would use.
	DefaultFanout = 10
	// FlagProtected marks a leaf extent as write-protected: its physical
	// blocks are shared (copy-on-write) and a device-side write must trap to
	// the hypervisor instead of writing through.
	FlagProtected = uint32(1) << 0
)

// NodeBytes reports the serialized size of a node with the given fanout.
func NodeBytes(fanout int) int64 { return HeaderSize + int64(fanout)*EntrySize }

// Run is one contiguous mapping of Count logical blocks starting at Logical
// onto physical blocks starting at Physical. Flags carries the on-wire entry
// flags (FlagProtected); the zero value is an ordinary writable mapping.
type Run struct {
	Logical  uint64
	Physical uint64
	Count    uint64
	Flags    uint32
}

// End reports the first logical block past the run.
func (r Run) End() uint64 { return r.Logical + r.Count }

// Protected reports whether the run is write-protected (CoW shared).
func (r Run) Protected() bool { return r.Flags&FlagProtected != 0 }

// Entry is a decoded node entry. For leaves Ptr is the first physical block;
// for internal nodes it is the child node's host address (0 = pruned).
type Entry struct {
	FirstLogical uint64
	Count        uint32
	Flags        uint32
	Ptr          uint64
}

// NodeView is a decoded node as the device's block-walk unit sees it.
type NodeView struct {
	Depth    int
	Count    int
	Capacity int
	Entries  []Entry
}

// Leaf reports whether the node holds extent pointers.
func (n *NodeView) Leaf() bool { return n.Depth == 0 }

// Find locates the entry covering vlba using binary search, reporting false
// when vlba falls in a coverage gap (a hole).
func (n *NodeView) Find(vlba uint64) (Entry, bool) {
	ents := n.Entries[:n.Count]
	// First entry with FirstLogical > vlba; candidate is its predecessor.
	i := sort.Search(len(ents), func(i int) bool { return ents[i].FirstLogical > vlba })
	if i == 0 {
		return Entry{}, false
	}
	e := ents[i-1]
	if vlba >= e.FirstLogical+uint64(e.Count) {
		return Entry{}, false
	}
	return e, true
}

// parseHeader validates a serialized node image — the device-side checks on
// bytes the host wrote: magic, count within capacity, entries not truncated —
// and returns its header fields.
func parseHeader(b []byte) (depth, count, capacity int, err error) {
	if len(b) < HeaderSize {
		return 0, 0, 0, fmt.Errorf("extent: node image of %d bytes too small", len(b))
	}
	if m := binary.BigEndian.Uint16(b[0:]); m != Magic {
		return 0, 0, 0, fmt.Errorf("extent: bad node magic %#x", m)
	}
	depth = int(binary.BigEndian.Uint16(b[2:]))
	count = int(binary.BigEndian.Uint16(b[4:]))
	capacity = int(binary.BigEndian.Uint16(b[6:]))
	if count > capacity {
		return 0, 0, 0, fmt.Errorf("extent: node count %d exceeds capacity %d", count, capacity)
	}
	if int64(len(b)) < HeaderSize+int64(count)*EntrySize {
		return 0, 0, 0, fmt.Errorf("extent: node image truncated")
	}
	return depth, count, capacity, nil
}

func decodeEntry(b []byte, i int) Entry {
	off := HeaderSize + i*EntrySize
	return Entry{
		FirstLogical: binary.BigEndian.Uint64(b[off:]),
		Count:        binary.BigEndian.Uint32(b[off+8:]),
		Flags:        binary.BigEndian.Uint32(b[off+12:]),
		Ptr:          binary.BigEndian.Uint64(b[off+16:]),
	}
}

// ParseNode decodes a serialized node image. It is the exact inverse of the
// serializer; the walkers use findInNode, which decodes only the entry it
// needs.
func ParseNode(b []byte) (*NodeView, error) {
	depth, count, capacity, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	n := &NodeView{Depth: depth, Count: count, Capacity: capacity, Entries: make([]Entry, count)}
	for i := range n.Entries {
		n.Entries[i] = decodeEntry(b, i)
	}
	return n, nil
}

// findInNode is ParseNode(b) followed by Find(vlba) without the decoded copy:
// the same header checks, then a binary search over the serialized entries
// where they lie. It reports the covering entry, whether there is one, and
// the node's depth (0 = leaf).
func findInNode(b []byte, vlba uint64) (e Entry, depth int, ok bool, err error) {
	depth, count, _, err := parseHeader(b)
	if err != nil {
		return Entry{}, 0, false, err
	}
	// First entry with FirstLogical > vlba; candidate is its predecessor.
	i := sort.Search(count, func(i int) bool {
		return binary.BigEndian.Uint64(b[HeaderSize+i*EntrySize:]) > vlba
	})
	if i == 0 {
		return Entry{}, depth, false, nil
	}
	e = decodeEntry(b, i-1)
	if vlba >= e.FirstLogical+uint64(e.Count) {
		return Entry{}, depth, false, nil
	}
	return e, depth, true, nil
}

func serializeNode(b []byte, depth, capacity int, entries []Entry) {
	binary.BigEndian.PutUint16(b[0:], Magic)
	binary.BigEndian.PutUint16(b[2:], uint16(depth))
	binary.BigEndian.PutUint16(b[4:], uint16(len(entries)))
	binary.BigEndian.PutUint16(b[6:], uint16(capacity))
	for i, e := range entries {
		off := HeaderSize + i*EntrySize
		binary.BigEndian.PutUint64(b[off:], e.FirstLogical)
		binary.BigEndian.PutUint32(b[off+8:], e.Count)
		binary.BigEndian.PutUint32(b[off+12:], e.Flags)
		binary.BigEndian.PutUint64(b[off+16:], e.Ptr)
	}
}

// Tree is a serialized extent tree resident in host memory, owned by the
// hypervisor. The device only ever sees the root address and raw node bytes.
// Its nodes are the ones reachable from the root: whatever frees them walks.
type Tree struct {
	mem     *hostmem.Memory
	fanout  int
	root    hostmem.Addr
	depth   int  // levels: 1 when the root is a leaf
	nodes   int  // nodes resident
	full    bool // the next Edit rebuilds: Prune detached a subtree, or an edit failed
	written int  // nodes serialized over the tree's life (the counted tests)

	// Scratch, so a change costs no garbage: the nodes it allocated and the
	// ones it replaces, a level's entries and the next's, an edit's path.
	fresh, stale []hostmem.Addr
	items, level []Entry
	path         []pathLevel
	img          []byte
}

// pathLevel is one level of the path an Edit copies: the entries of the
// nodes it replaces there, of which [s, e) give way to what the level below
// turns into.
type pathLevel struct {
	ents []Entry
	s, e int
}

// Build validates and serializes runs into a tree in mem. Runs must be
// sorted by Logical and non-overlapping; runs longer than MaxUint32 blocks
// are split transparently. The tree neither keeps nor modifies runs: the
// mapping lives with whoever owns runs (the host filesystem's inode) and in
// the serialized nodes.
func Build(mem *hostmem.Memory, runs []Run, fanout int) (*Tree, error) {
	if fanout < 2 {
		fanout = DefaultFanout
	}
	norm, err := normalize(runs)
	if err != nil {
		return nil, err
	}
	t := &Tree{mem: mem, fanout: fanout, img: make([]byte, NodeBytes(fanout))}
	if err := t.replace(norm, fanout, fanout, false); err != nil {
		return nil, err
	}
	return t, nil
}

// normalize validates runs where they lie and returns them in on-wire form:
// the slice itself, unless an empty run has to be dropped or a run longer
// than the 32-bit on-wire count split, which takes a rewritten copy.
func normalize(runs []Run) ([]Run, error) {
	var prevEnd uint64
	rewrite := false
	for i, r := range runs {
		if r.Count == 0 {
			rewrite = true
			continue
		}
		if r.Logical < prevEnd {
			return nil, fmt.Errorf("extent: run %d (logical %d) overlaps or is unsorted (previous end %d)", i, r.Logical, prevEnd)
		}
		if r.Logical+r.Count < r.Logical {
			return nil, fmt.Errorf("extent: run %d overflows logical space", i)
		}
		if r.Count > math.MaxUint32 {
			rewrite = true
		}
		prevEnd = r.End()
	}
	if !rewrite {
		return runs, nil
	}
	out := make([]Run, 0, len(runs))
	for _, r := range runs {
		if r.Count == 0 {
			continue
		}
		for r.Count > math.MaxUint32 {
			out = append(out, Run{Logical: r.Logical, Physical: r.Physical, Count: math.MaxUint32, Flags: r.Flags})
			r.Logical += math.MaxUint32
			r.Physical += math.MaxUint32
			r.Count -= math.MaxUint32
		}
		out = append(out, r)
	}
	return out, nil
}

func entryOf(r Run) Entry {
	return Entry{FirstLogical: r.Logical, Count: uint32(r.Count), Flags: r.Flags, Ptr: r.Physical}
}

func entryEnd(e Entry) uint64 { return e.FirstLogical + uint64(e.Count) }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// shape reports the depth and node count of a tree of n runs whose leaves
// hold at most leafG entries and whose other nodes nodeG: with both the
// fanout, what Rebuild makes.
func shape(n, leafG, nodeG int) (depth, nodes int) {
	m := max(1, ceilDiv(n, leafG))
	for depth, nodes = 1, m; m > 1; depth++ {
		m = ceilDiv(m, nodeG)
		nodes += m
	}
	return depth, nodes
}

// replace serializes runs (on-wire form) bottom-up as a new tree whose leaves
// hold at most leafG entries and other nodes nodeG — filled but the last of
// each level, or evened out — and then frees the old one. On an error the
// tree is what it was and nothing stays allocated.
func (t *Tree) replace(runs []Run, leafG, nodeG int, even bool) error {
	t.stale = t.stale[:0]
	if t.root != 0 {
		if err := t.collect(t.root, t.depth); err != nil {
			return err
		}
	}
	t.fresh, t.items, t.level = t.fresh[:0], t.items[:0], t.level[:0]
	for _, r := range runs {
		t.items = append(t.items, entryOf(r))
	}
	// An empty mapping gets one empty leaf: the device always has a node.
	err := t.pack(0, t.items, max(1, ceilDiv(len(t.items), leafG)), even)
	depth := 1
	for ; err == nil && len(t.level) > 1; depth++ {
		t.items, t.level = t.level, t.items[:0]
		err = t.pack(depth, t.items, ceilDiv(len(t.items), nodeG), even)
	}
	if err != nil {
		t.release(t.fresh)
		return err
	}
	t.release(t.stale)
	t.root, t.depth, t.nodes, t.full = hostmem.Addr(t.level[0].Ptr), depth, len(t.fresh), false
	return nil
}

// pack writes items, one level's entries, as m nodes of the given depth —
// filled to the fanout but the last or, when even, differing by one entry at
// most — and appends each node's entry to t.level. An entry covers its
// child's whole span, gaps included, clamped to the on-wire count.
func (t *Tree) pack(depth int, items []Entry, m int, even bool) error {
	for left := m; left > 0; left-- {
		take := min(t.fanout, len(items))
		if even {
			take = ceilDiv(len(items), left)
		}
		addr, err := t.mem.Alloc(NodeBytes(t.fanout), 8)
		if err != nil {
			return err
		}
		t.fresh = append(t.fresh, addr)
		img, err := t.mem.Slice(addr, NodeBytes(t.fanout))
		if err != nil {
			return err
		}
		ents := items[:take]
		items = items[take:]
		serializeNode(img, depth, t.fanout, ents)
		t.written++
		e := Entry{Ptr: uint64(addr)}
		if len(ents) > 0 {
			e.FirstLogical = ents[0].FirstLogical
			e.Count = uint32(min(entryEnd(ents[len(ents)-1])-e.FirstLogical, math.MaxUint32))
		}
		t.level = append(t.level, e)
	}
	return nil
}

// collect appends the address of every node of the subtree of the given
// height (levels) at root to t.stale, reading only its internal nodes.
func (t *Tree) collect(root hostmem.Addr, height int) error {
	lo := len(t.stale)
	t.stale = append(t.stale, root)
	for ; height > 1; height-- {
		hi := len(t.stale)
		for _, a := range t.stale[lo:hi] {
			if err := t.mem.Read(a, t.img); err != nil {
				return err
			}
			_, count, _, err := parseHeader(t.img)
			if err != nil {
				return err
			}
			for i := 0; i < count; i++ {
				if ptr := decodeEntry(t.img, i).Ptr; ptr != 0 {
					t.stale = append(t.stale, hostmem.Addr(ptr))
				}
			}
		}
		lo = hi
	}
	return nil
}

// Root reports the host address of the root node — the value the hypervisor
// programs into the VF's ExtentTreeRoot register.
func (t *Tree) Root() hostmem.Addr { return t.root }

// Fanout reports the node fanout.
func (t *Tree) Fanout() int { return t.fanout }

// Nodes reports how many nodes are currently resident in host memory.
func (t *Tree) Nodes() int { return t.nodes }

// ResidentBytes reports the host memory held by the serialized tree.
func (t *Tree) ResidentBytes() int64 { return int64(t.nodes) * NodeBytes(t.fanout) }

// Free releases every node of the tree from host memory.
func (t *Tree) Free() {
	if t.root == 0 {
		return
	}
	t.stale = t.stale[:0]
	if err := t.collect(t.root, t.depth); err != nil {
		panic(err)
	}
	t.release(t.stale)
	t.root, t.depth, t.nodes = 0, 0, 0
}

// release frees nodes in list order.
func (t *Tree) release(nodes []hostmem.Addr) {
	for _, a := range nodes {
		// Free can only fail on double-free, which would be a Tree bug.
		if err := t.mem.Free(a); err != nil {
			panic(err)
		}
	}
}

// Rebuild replaces the mapping with runs and reserializes the whole tree,
// bulk-loaded: every node full but the last of its level, so depth is
// ⌈log_fanout(runs)⌉. It serves whole-file changes and a pruned tree; a miss
// is an Edit. The root address changes; the caller must reprogram
// ExtentTreeRoot before signaling RewalkTree. Rebuild neither keeps nor
// modifies runs and does not park, so the caller may hand it a list another
// owner changes in place. It is transactional: on an error (runs invalid,
// host memory exhausted) the tree is what it was.
func (t *Tree) Rebuild(runs []Run) error {
	norm, err := normalize(runs)
	if err != nil {
		return err
	}
	return t.replace(norm, t.fanout, t.fanout, false)
}

// Edit brings the tree up to date with runs, the whole mapping as Rebuild
// takes it, after a change to the runs and entries overlapping [lo, hi) and,
// through them, to what they overlap in turn; elsewhere runs must still be
// what the tree maps. It widens [lo, hi) until no old entry and no run
// straddles either end, then copies the path to it: the covering leaves are
// rewritten from runs, split or merged and evened out, and so is each
// ancestor up to a new root, while untouched subtrees are shared. The cost is
// the depth times the nodes the range covers; runs is searched, never
// scanned. An edit that maps nothing new changes nothing. What an edit cannot
// express in place is rebuilt: a pruned tree, a run that needs normalizing,
// and a shape out of bounds — deeper than Rebuild's, which a new root never
// makes it, or, after the mapping shrank, two levels deeper or twice its
// nodes. Edit keeps Rebuild's contract; after an error the next Edit
// rebuilds in full.
func (t *Tree) Edit(runs []Run, lo, hi uint64) error {
	err := t.edit(runs, lo, hi)
	if err != nil {
		t.full = true
	}
	return err
}

func (t *Tree) edit(runs []Run, lo, hi uint64) error {
	if t.full {
		return t.Rebuild(runs)
	}
	if lo >= hi {
		return nil
	}
	a, b, err := t.widen(runs, lo, hi)
	if err != nil {
		return err
	}
	i := sort.Search(len(runs), func(i int) bool { return runs[i].Logical >= a })
	j := i + sort.Search(len(runs)-i, func(k int) bool { return runs[i+k].Logical >= b })
	news := runs[i:j]
	for k, prev := 0, a; k < len(news); k++ {
		r := news[k]
		if r.Count == 0 || r.Count > math.MaxUint32 || r.Logical < prev || r.End() > b {
			return t.spread(runs) // normalizing, or refusing, is a rebuild's
		}
		prev = r.End()
	}
	if err := t.descend(a, b); err != nil {
		return err
	}
	leaf := &t.path[0]
	if slices.EqualFunc(leaf.ents[leaf.s:leaf.e], news, func(e Entry, r Run) bool { return e == entryOf(r) }) {
		return nil
	}

	// Up the path: each level's replaced entries give way to the nodes the
	// level below turned into; the root's level may overflow into a new root.
	t.fresh, t.items, t.level = t.fresh[:0], t.items[:0], t.level[:0]
	t.items = append(t.items, leaf.ents[:leaf.s]...)
	for _, r := range news {
		t.items = append(t.items, entryOf(r))
	}
	t.items = append(t.items, leaf.ents[leaf.e:]...)
	err = t.pack(0, t.items, ceilDiv(len(t.items), t.fanout), true)
	for k := 1; k < t.depth && err == nil; k++ {
		pl := &t.path[k]
		t.items = append(append(append(t.items[:0], pl.ents[:pl.s]...), t.level...), pl.ents[pl.e:]...)
		t.level = t.level[:0]
		err = t.pack(k, t.items, ceilDiv(len(t.items), t.fanout), true)
	}
	fullDepth, fullNodes := shape(len(runs), t.fanout, t.fanout)
	depth := t.depth
	for ; err == nil && len(t.level) > 1 && depth < fullDepth; depth++ {
		t.items, t.level = t.level, t.items[:0]
		err = t.pack(depth, t.items, ceilDiv(len(t.items), t.fanout), true)
	}
	nodes := t.nodes - len(t.stale) + len(t.fresh)
	if err != nil || len(t.level) != 1 || depth > fullDepth+1 || nodes > 2*fullNodes {
		t.release(t.fresh)
		if err != nil {
			return err
		}
		return t.spread(runs)
	}
	t.release(t.stale)
	t.root, t.depth, t.nodes = hostmem.Addr(t.level[0].Ptr), depth, nodes
	return nil
}

// widen grows [a, b) until neither end cuts through an entry of the tree or
// a run: a CoW break splits one old entry in three, an allocation may merge
// with its neighbours, and each may reach past what the host was asked for.
func (t *Tree) widen(runs []Run, a, b uint64) (uint64, uint64, error) {
	for {
		na, nb := a, b
		for _, v := range [2]uint64{a, b - 1} {
			res, err := walk(t.mem, t.root, t.img, v)
			if err != nil {
				return 0, 0, err
			}
			if res.Mapped {
				na, nb = min(na, res.Extent.Logical), max(nb, res.Extent.End())
			}
			k := sort.Search(len(runs), func(k int) bool { return runs[k].End() > v })
			if k < len(runs) && runs[k].Logical <= v {
				na, nb = min(na, runs[k].Logical), max(nb, runs[k].End())
			}
		}
		if na == a && nb == b {
			return a, b, nil
		}
		a, b = na, nb
	}
}

// descend reads the path to [a, b) from the root down into t.path, level by
// level, and lists its nodes in t.stale: at each level the entries of the
// nodes the level above pointed into, and [s, e), those overlapping the
// range. An internal level with none takes the child the range would extend
// — the last one before it, or the first — so every level has one.
func (t *Tree) descend(a, b uint64) error {
	for len(t.path) < t.depth {
		t.path = append(t.path, pathLevel{})
	}
	t.stale = append(t.stale[:0], t.root)
	for k, lo := t.depth-1, 0; k >= 0; k-- {
		pl := &t.path[k]
		pl.ents = pl.ents[:0]
		hi := len(t.stale)
		for _, addr := range t.stale[lo:hi] {
			if err := t.mem.Read(addr, t.img); err != nil {
				return err
			}
			depth, count, _, err := parseHeader(t.img)
			if err != nil {
				return err
			}
			if depth != k {
				return fmt.Errorf("extent: depth-%d node where the walk expects depth %d", depth, k)
			}
			for i := 0; i < count; i++ {
				pl.ents = append(pl.ents, decodeEntry(t.img, i))
			}
		}
		ents := pl.ents
		pl.s = sort.Search(len(ents), func(i int) bool { return entryEnd(ents[i]) > a })
		pl.e = pl.s + sort.Search(len(ents)-pl.s, func(i int) bool { return ents[pl.s+i].FirstLogical >= b })
		if k == 0 {
			break
		}
		if pl.s == pl.e {
			if len(ents) == 0 {
				return fmt.Errorf("extent: empty internal node")
			}
			pl.s = max(pl.s-1, 0)
			pl.e = pl.s + 1
		}
		lo = hi
		for _, e := range ents[pl.s:pl.e] {
			t.stale = append(t.stale, hostmem.Addr(e.Ptr))
		}
	}
	return nil
}

// spread rebuilds the tree from runs with the slack edits need, as deep as
// Rebuild's and no deeper. An edit adds entries to leaves, and an inner node
// only grows when a leaf splits, so the slack goes to the leaves: as many as
// the depth has room for, at least half full, under inner nodes Rebuild
// packs.
func (t *Tree) spread(runs []Run) error {
	norm, err := normalize(runs)
	if err != nil {
		return err
	}
	depth, _ := shape(len(norm), t.fanout, t.fanout)
	room := 1 // leaves the depth has room for: fanout^(depth-1), up to len(norm)
	for i := 1; i < depth && room < len(norm); i++ {
		room *= t.fanout
	}
	return t.replace(norm, max((t.fanout+1)/2, ceilDiv(len(norm), room)), t.fanout, true)
}

// Prune detaches up to maxNodes nodes' worth of the root's subtrees, freeing
// their memory and NULLing the root's pointers to them (paper §IV-B: "If
// memory becomes tight, the hypervisor can prune parts of the extent tree
// and mark the pruned sections by storing NULL in their respective Next Node
// Pointer"). It returns the number of nodes freed. Pruning a tree whose root
// is a leaf is a no-op. The next Edit rebuilds the tree in full.
func (t *Tree) Prune(maxNodes int) (int, error) {
	if maxNodes <= 0 || t.depth < 2 {
		return 0, nil
	}
	if err := t.mem.Read(t.root, t.img); err != nil {
		return 0, err
	}
	_, count, _, err := parseHeader(t.img)
	if err != nil {
		return 0, err
	}
	t.items = t.items[:0]
	for i := 0; i < count; i++ {
		t.items = append(t.items, decodeEntry(t.img, i))
	}
	freed := 0
	for i, e := range t.items {
		if freed >= maxNodes {
			break
		}
		if e.Ptr == 0 {
			continue
		}
		t.stale = t.stale[:0]
		if err := t.collect(hostmem.Addr(e.Ptr), t.depth-1); err != nil {
			return freed, err
		}
		t.release(t.stale)
		freed += len(t.stale)
		t.nodes -= len(t.stale)
		t.full = true
		// NULL the child pointer in place.
		if err := t.mem.WriteU64(t.root+HeaderSize+int64(i)*EntrySize+16, 0); err != nil {
			return freed, err
		}
	}
	return freed, nil
}

// Resolution is the outcome of translating one vLBA.
type Resolution struct {
	// Mapped: a physical mapping exists; PLBA is valid.
	Mapped bool
	// Hole: no extent covers the vLBA (reads return zeros; writes require
	// allocation).
	Hole bool
	// Pruned: the walk hit a NULL child pointer; the host must regenerate
	// the mapping.
	Pruned bool
	// Protected: the covering extent is write-protected (CoW shared); a
	// write must trap to the host to break sharing before it may proceed.
	Protected bool
	// PLBA is the translated physical block address (valid when Mapped).
	PLBA uint64
	// Extent is the whole covering extent (valid when Mapped) — what the
	// BTLB caches.
	Extent Run
	// Levels counts nodes visited during the walk; depth is the last one's.
	Levels int
	depth  int
}

// Step advances a walk by one node: it looks vlba up in the node image b and
// either finishes the resolution (hole, leaf mapping, pruned subtree) and
// returns 0, or returns the address of the child node to read next. It is the
// one copy of the walk's logic, shared by the device's block-walk unit and
// the software Lookup. The root sets the walk's depth and every next node must
// lie exactly one level below its parent, so whatever pointers the host wrote,
// a walk ends within the root's depth and never visits a node twice.
func (res *Resolution) Step(b []byte, vlba uint64) (next hostmem.Addr, err error) {
	e, depth, ok, err := findInNode(b, vlba)
	if err != nil {
		return 0, err
	}
	if res.Levels > 0 && depth != res.depth-1 {
		return 0, fmt.Errorf("extent: depth-%d node under a depth-%d parent", depth, res.depth)
	}
	res.Levels, res.depth = res.Levels+1, depth
	switch {
	case !ok:
		res.Hole = true
	case depth == 0:
		res.Mapped = true
		res.Extent = Run{Logical: e.FirstLogical, Physical: e.Ptr, Count: uint64(e.Count), Flags: e.Flags}
		res.Protected = e.Flags&FlagProtected != 0
		res.PLBA = e.Ptr + (vlba - e.FirstLogical)
	case e.Ptr == 0:
		res.Pruned = true
	default:
		return hostmem.Addr(e.Ptr), nil
	}
	return 0, nil
}

// Lookup is the software reference walker: it performs the same walk the
// device's block-walk unit performs, synchronously against host memory. The
// device model, tests, and the hypervisor all use it as ground truth.
func Lookup(mem *hostmem.Memory, root hostmem.Addr, fanout int, vlba uint64) (Resolution, error) {
	return walk(mem, root, make([]byte, NodeBytes(fanout)), vlba)
}

// walk is Lookup reading each node into img.
func walk(mem *hostmem.Memory, root hostmem.Addr, img []byte, vlba uint64) (Resolution, error) {
	var res Resolution
	if root == 0 {
		return res, fmt.Errorf("extent: NULL root")
	}
	for addr := root; ; {
		if err := mem.Read(addr, img); err != nil {
			return res, err
		}
		next, err := res.Step(img, vlba)
		if err != nil || next == 0 {
			return res, err
		}
		addr = next
	}
}

// CollectRuns walks the whole tree and returns the mapped runs in logical
// order. Pruned subtrees contribute nothing; the complete mapping is the
// one the tree was built from.
func CollectRuns(mem *hostmem.Memory, root hostmem.Addr, fanout int) ([]Run, error) {
	var out []Run
	img := make([]byte, NodeBytes(fanout))
	var walk func(addr hostmem.Addr) error
	walk = func(addr hostmem.Addr) error {
		if err := mem.Read(addr, img); err != nil {
			return err
		}
		n, err := ParseNode(img)
		if err != nil {
			return err
		}
		if n.Leaf() {
			for _, e := range n.Entries {
				out = append(out, Run{Logical: e.FirstLogical, Physical: e.Ptr, Count: uint64(e.Count), Flags: e.Flags})
			}
			return nil
		}
		children := make([]hostmem.Addr, 0, n.Count)
		for _, e := range n.Entries {
			if e.Ptr != 0 {
				children = append(children, hostmem.Addr(e.Ptr))
			}
		}
		for _, c := range children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return out, nil
}

// Depth reports the tree height in levels (1 for a single leaf).
func (t *Tree) Depth() (int, error) { return t.depth, nil }
