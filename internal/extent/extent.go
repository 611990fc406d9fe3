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
type Tree struct {
	mem    *hostmem.Memory
	fanout int
	root   hostmem.Addr
	nodes  []hostmem.Addr // every allocation, for Free/accounting
	runs   []Run          // authoritative mapping, kept for rebuilds

	// What the previous generation retired and serialize's scratch, kept so a
	// rebuild costs no garbage: Rebuild fills the spare pair and swaps it
	// with runs/nodes on success.
	spareRuns      []Run
	spareNodes     []hostmem.Addr
	entries        []Entry
	level, parents []built
}

// built is a serialized node awaiting its parent.
type built struct {
	addr  hostmem.Addr
	first uint64
	span  uint64 // coverage from first to end of last entry
}

// Build validates and serializes runs into a tree in mem. Runs must be
// sorted by Logical and non-overlapping; runs longer than MaxUint32 blocks
// are split transparently. The tree keeps its own copy of runs.
func Build(mem *hostmem.Memory, runs []Run, fanout int) (*Tree, error) {
	if fanout < 2 {
		fanout = DefaultFanout
	}
	norm, err := normalize(slices.Clone(runs))
	if err != nil {
		return nil, err
	}
	t := &Tree{mem: mem, fanout: fanout}
	root, err := t.serialize(norm)
	if err != nil {
		t.Free()
		return nil, err
	}
	t.root, t.runs = root, norm
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

// serialize writes runs as a fresh node hierarchy, bulk-loaded bottom-up
// (every node full but the last of its level, so depth is
// ⌈log_fanout(runs)⌉), appends every node to t.nodes, leaves first, and
// returns the root's address.
func (t *Tree) serialize(runs []Run) (hostmem.Addr, error) {
	t.level, t.entries = t.level[:0], t.entries[:0]
	var end uint64
	for _, r := range runs {
		t.entries = append(t.entries, Entry{FirstLogical: r.Logical, Count: uint32(r.Count), Flags: r.Flags, Ptr: r.Physical})
		end = r.End()
		if len(t.entries) == t.fanout {
			if err := t.flushNode(0, end); err != nil {
				return 0, err
			}
		}
	}
	// The last, partial leaf — or, for an empty mapping, a single empty leaf
	// so the device always has a valid node to walk (every vLBA is a hole).
	if len(t.entries) > 0 || len(t.level) == 0 {
		if err := t.flushNode(0, end); err != nil {
			return 0, err
		}
	}
	// Internal levels until a single root remains.
	for depth := 1; len(t.level) > 1; depth++ {
		children := t.level
		t.level, t.parents = t.parents[:0], children
		for i, c := range children {
			// An entry covers its child's whole span, gaps included, clamped
			// to the on-wire count.
			t.entries = append(t.entries, Entry{FirstLogical: c.first, Count: uint32(min(c.span, math.MaxUint32)), Ptr: uint64(c.addr)})
			if len(t.entries) == t.fanout || i == len(children)-1 {
				if err := t.flushNode(depth, c.first+c.span); err != nil {
					return 0, err
				}
			}
		}
	}
	return t.level[0].addr, nil
}

// flushNode serializes t.entries, which cover logical blocks up to end, as
// one node of the given depth and queues it on t.level for its parent.
func (t *Tree) flushNode(depth int, end uint64) error {
	addr, err := t.allocNode()
	if err != nil {
		return err
	}
	img, err := t.mem.Slice(addr, NodeBytes(t.fanout))
	if err != nil {
		return err
	}
	serializeNode(img, depth, t.fanout, t.entries)
	b := built{addr: addr}
	if len(t.entries) > 0 {
		b.first = t.entries[0].FirstLogical
		b.span = end - b.first
	}
	t.level = append(t.level, b)
	t.entries = t.entries[:0]
	return nil
}

func (t *Tree) allocNode() (hostmem.Addr, error) {
	addr, err := t.mem.Alloc(NodeBytes(t.fanout), 8)
	if err != nil {
		return 0, err
	}
	t.nodes = append(t.nodes, addr)
	return addr, nil
}

// Root reports the host address of the root node — the value the hypervisor
// programs into the VF's ExtentTreeRoot register.
func (t *Tree) Root() hostmem.Addr { return t.root }

// Fanout reports the node fanout.
func (t *Tree) Fanout() int { return t.fanout }

// Nodes reports how many nodes are currently resident in host memory.
func (t *Tree) Nodes() int { return len(t.nodes) }

// ResidentBytes reports the host memory held by the serialized tree.
func (t *Tree) ResidentBytes() int64 { return int64(len(t.nodes)) * NodeBytes(t.fanout) }

// Runs returns the authoritative mapping (a copy).
func (t *Tree) Runs() []Run { return append([]Run(nil), t.runs...) }

// Free releases every node of the tree from host memory.
func (t *Tree) Free() {
	t.release(t.nodes)
	t.nodes = nil
	t.root = 0
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

// Rebuild replaces the mapping with runs and reserializes the whole tree.
// This is the hypervisor's response both to lazy allocation (new blocks
// mapped on first write) and to a device miss on a pruned subtree. The root
// address changes; the caller must reprogram ExtentTreeRoot before signaling
// RewalkTree.
//
// Rebuild copies runs; it neither keeps nor modifies the caller's slice. It
// is transactional: on an error (runs invalid, host memory exhausted) the
// tree — nodes, root and Runs — is what it was. The new tree is allocated in
// full before the first old node is freed, so a root register that is stale
// for a moment still walks intact nodes.
func (t *Tree) Rebuild(runs []Run) error {
	t.spareRuns = append(t.spareRuns[:0], runs...)
	norm, err := normalize(t.spareRuns)
	if err != nil {
		return err
	}
	old := t.nodes
	t.nodes = t.spareNodes[:0]
	root, err := t.serialize(norm)
	if err != nil {
		t.release(t.nodes)
		t.nodes, t.spareNodes = old, t.nodes[:0]
		return err
	}
	t.release(old)
	t.spareNodes = old[:0]
	t.root = root
	t.runs, t.spareRuns = norm, t.runs
	return nil
}

// Prune walks the tree and detaches up to maxNodes descendant subtrees,
// freeing their memory and NULLing the parent pointers (paper §IV-B: "If
// memory becomes tight, the hypervisor can prune parts of the extent tree
// and mark the pruned sections by storing NULL in their respective Next Node
// Pointer"). It returns the number of nodes freed. Pruning a tree whose root
// is a leaf is a no-op.
func (t *Tree) Prune(maxNodes int) (int, error) {
	if maxNodes <= 0 {
		return 0, nil
	}
	img := make([]byte, NodeBytes(t.fanout))
	freed := 0
	// BFS from the root over internal nodes; prune children greedily.
	queue := []hostmem.Addr{t.root}
	for len(queue) > 0 && freed < maxNodes {
		addr := queue[0]
		queue = queue[1:]
		if err := t.mem.Read(addr, img); err != nil {
			return freed, err
		}
		n, err := ParseNode(img)
		if err != nil {
			return freed, err
		}
		if n.Leaf() {
			continue
		}
		for i := 0; i < n.Count && freed < maxNodes; i++ {
			child := hostmem.Addr(n.Entries[i].Ptr)
			if child == 0 {
				continue
			}
			nf, err := t.freeSubtree(child)
			if err != nil {
				return freed, err
			}
			freed += nf
			// NULL the child pointer in place.
			off := addr + HeaderSize + int64(i)*EntrySize + 16
			if err := t.mem.WriteU64(off, 0); err != nil {
				return freed, err
			}
		}
	}
	return freed, nil
}

// freeSubtree recursively frees the subtree rooted at addr, returning the
// node count freed, and drops the addresses from the tree's node list.
func (t *Tree) freeSubtree(addr hostmem.Addr) (int, error) {
	img := make([]byte, NodeBytes(t.fanout))
	if err := t.mem.Read(addr, img); err != nil {
		return 0, err
	}
	n, err := ParseNode(img)
	if err != nil {
		return 0, err
	}
	freed := 0
	if !n.Leaf() {
		for i := 0; i < n.Count; i++ {
			if child := hostmem.Addr(n.Entries[i].Ptr); child != 0 {
				nf, err := t.freeSubtree(child)
				if err != nil {
					return freed, err
				}
				freed += nf
			}
		}
	}
	if err := t.mem.Free(addr); err != nil {
		return freed, err
	}
	for i, a := range t.nodes {
		if a == addr {
			t.nodes = append(t.nodes[:i], t.nodes[i+1:]...)
			break
		}
	}
	return freed + 1, nil
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
	var res Resolution
	if root == 0 {
		return res, fmt.Errorf("extent: NULL root")
	}
	img := make([]byte, NodeBytes(fanout))
	addr := root
	for {
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
// order. Pruned subtrees contribute nothing; callers that need completeness
// should consult Tree.Runs instead.
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
func (t *Tree) Depth() (int, error) {
	img := make([]byte, NodeBytes(t.fanout))
	if err := t.mem.Read(t.root, img); err != nil {
		return 0, err
	}
	n, err := ParseNode(img)
	if err != nil {
		return 0, err
	}
	return n.Depth + 1, nil
}
