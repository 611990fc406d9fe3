package extfs

import (
	"encoding/binary"
	"slices"
	"sort"

	"nesc/internal/extent"
	"nesc/internal/sim"
)

// Copy-on-write snapshots. A snapshot shares the source file's physical
// blocks instead of copying them: both files' extents are marked
// write-protected (extent.FlagProtected, persisted in the count word's top
// bit), and every shared block gains an entry in the on-disk reference-count
// table. The table counts EXTRA references — 0 means sole owner — so a
// freshly formatted volume needs no table at all; it is allocated lazily
// from the data region by the first Snapshot and published through the
// superblock (refcntStart/refcntBlocks), all inside one journaled
// transaction. Writes to a protected extent — from the host through
// WriteAt/Truncate, or from a guest via the device's CoW fault — go through
// BreakRange, which copies the shared blocks aside (or just clears a stale
// flag once every other owner is gone) and drops one reference.

// refEntrySize is the on-disk size of one reference-count entry.
const refEntrySize = 4

// refEntries reports how many data-region blocks the table covers.
func (fs *FS) refEntries() uint64 { return fs.sb.numBlocks - fs.sb.dataStart }

// loadRefcntTable reads the on-disk table into memory (mount path).
func (fs *FS) loadRefcntTable(ctx *sim.Proc) error {
	entries := fs.refEntries()
	fs.refcnt = make([]uint32, entries)
	img := make([]byte, fs.bs)
	per := uint64(fs.bs / refEntrySize)
	for b := uint64(0); b < fs.sb.refcntBlocks; b++ {
		if err := fs.dev.ReadBlocks(ctx, int64(fs.sb.refcntStart+b), img); err != nil {
			return err
		}
		for i := uint64(0); i < per && b*per+i < entries; i++ {
			fs.refcnt[b*per+i] = binary.BigEndian.Uint32(img[i*refEntrySize:])
		}
	}
	return nil
}

// ensureRefcntTable allocates, zeroes, and publishes the reference-count
// table on first use. Must run inside an open transaction: the superblock
// update that makes the table reachable commits atomically with the
// snapshot that needed it; until then the blocks read as free on disk, so a
// crash leaks nothing.
func (fs *FS) ensureRefcntTable(ctx *sim.Proc) error {
	if fs.refcnt != nil {
		return nil
	}
	entries := fs.refEntries()
	need := (entries*refEntrySize + uint64(fs.bs) - 1) / uint64(fs.bs)
	start, got := fs.allocRun(fs.sb.dataStart, need)
	if got < need {
		if got > 0 {
			fs.freeRun(start, got)
		}
		return ErrNoSpace
	}
	// Zero the table region directly (the blocks are unreachable until the
	// superblock lands, exactly like fresh data blocks).
	zero := fs.zeroRun(64)
	for off := uint64(0); off < need; {
		n := need - off
		if n > 64 {
			n = 64
		}
		fs.MetaBlockWrites += int64(n)
		if err := fs.devWrite(ctx, int64(start+off), zero[:n*uint64(fs.bs)]); err != nil {
			return err
		}
		off += n
	}
	fs.sb.refcntStart = start
	fs.sb.refcntBlocks = need
	fs.refcnt = make([]uint32, entries)
	sbImg := make([]byte, fs.bs)
	fs.sb.encode(sbImg)
	return fs.writeBlock(ctx, 0, sbImg, true)
}

// refGet reports the extra-reference count of a volume block (0 when no
// table exists or the block is outside the data region).
func (fs *FS) refGet(blk uint64) uint32 {
	if fs.refcnt == nil || blk < fs.sb.dataStart || blk >= fs.sb.numBlocks {
		return 0
	}
	return fs.refcnt[blk-fs.sb.dataStart]
}

// refAdd moves a block's extra-reference count by delta and marks the
// covering table disk block dirty for the current transaction.
func (fs *FS) refAdd(blk uint64, delta int32) {
	idx := blk - fs.sb.dataStart
	fs.refcnt[idx] = uint32(int32(fs.refcnt[idx]) + delta)
	if fs.dirtyRefcntBlks == nil {
		fs.dirtyRefcntBlks = make(map[uint64]struct{})
	}
	fs.dirtyRefcntBlks[idx*refEntrySize/uint64(fs.bs)] = struct{}{}
}

// renderRefcntBlock fills img with the image of refcount-table block b.
func (fs *FS) renderRefcntBlock(img []byte, b uint64) {
	clear(img)
	per := uint64(fs.bs / refEntrySize)
	entries := fs.refEntries()
	for i := uint64(0); i < per && b*per+i < entries; i++ {
		binary.BigEndian.PutUint32(img[i*refEntrySize:], fs.refcnt[b*per+i])
	}
}

// SharedBlocks reports how many data blocks carry at least one extra (CoW)
// reference — the shared-block gauge.
func (fs *FS) SharedBlocks() int64 {
	var n int64
	for _, c := range fs.refcnt {
		if c > 0 {
			n++
		}
	}
	return n
}

// Snapshot creates dstPath as a copy-on-write image of srcPath: the new
// file shares every physical block with the source, both files' extents are
// write-protected, and each shared block gains one reference. The caller
// needs read permission on the source and write permission on the
// destination's parent (checked by createNode). The new file is owned by
// uid with the source's permission bits.
func (fs *FS) Snapshot(ctx *sim.Proc, srcPath, dstPath string, uid uint32) error {
	return fs.transact(ctx, func() error { return fs.snapshotLocked(ctx, srcPath, dstPath, uid) })
}

func (fs *FS) snapshotLocked(ctx *sim.Proc, srcPath, dstPath string, uid uint32) error {
	srcIno, err := fs.resolve(ctx, srcPath, uid)
	if err != nil {
		return err
	}
	src := &fs.inodes[srcIno]
	if src.isDir() {
		return ErrIsDir
	}
	if !accessOK(src, uid, PermRead) {
		return ErrPerm
	}
	if err := fs.ensureRefcntTable(ctx); err != nil {
		return err
	}
	dstIno, err := fs.createNode(ctx, dstPath, uid, ModeFile|(src.mode&0o777))
	if err != nil {
		return err
	}
	dst := &fs.inodes[dstIno]
	dst.size = src.size
	dst.extents = make([]extent.Run, len(src.extents))
	for i := range src.extents {
		src.extents[i].Flags |= extent.FlagProtected
		dst.extents[i] = src.extents[i]
		e := src.extents[i]
		for b := e.Physical; b < e.Physical+e.Count; b++ {
			fs.refAdd(b, 1)
		}
	}
	fs.allocSeq++
	if err := fs.writeInode(ctx, srcIno); err != nil {
		return err
	}
	return fs.writeInode(ctx, dstIno)
}

// BreakRange unshares logical blocks [blk, blk+n) of path: protected
// extents overlapping the range are split, shared blocks are copied to
// fresh storage (dropping one reference on the originals), and blocks whose
// other owners are already gone are simply unprotected in place. This is
// the hypervisor's CoW-fault service (device miss with MissReasonCoW) and
// runs as one journaled transaction, so a crash never leaks or double-frees
// a block. It is idempotent: re-running it over an already-broken range
// changes nothing.
func (fs *FS) BreakRange(ctx *sim.Proc, path string, blk, n uint64) error {
	return fs.transact(ctx, func() error {
		ino, err := fs.resolve(ctx, path, 0)
		if err != nil {
			return err
		}
		in := &fs.inodes[ino]
		if in.isDir() {
			return ErrIsDir
		}
		changed, err := fs.breakShareLocked(ctx, in, blk, n)
		if err != nil || !changed {
			return err
		}
		return fs.writeInode(ctx, ino)
	})
}

// breakShareLocked walks the protected extents overlapping logical blocks
// [lblk, lblk+n) of in and unshares each covered window. Caller holds the
// lock and an open transaction. Reports whether anything changed.
func (fs *FS) breakShareLocked(ctx *sim.Proc, in *inode, lblk, n uint64) (bool, error) {
	changed := false
	end := lblk + n
	cur := lblk
	for cur < end {
		i := sort.Search(len(in.extents), func(i int) bool { return in.extents[i].Logical > cur })
		if i == 0 {
			// cur precedes every extent: skip to the first one in range.
			if len(in.extents) == 0 || in.extents[0].Logical >= end {
				break
			}
			cur = in.extents[0].Logical
			continue
		}
		e := in.extents[i-1]
		if cur >= e.End() {
			// Gap: skip to the next extent in range.
			if i >= len(in.extents) || in.extents[i].Logical >= end {
				break
			}
			cur = in.extents[i].Logical
			continue
		}
		if !e.Protected() {
			cur = e.End()
			continue
		}
		winEnd := e.End()
		if winEnd > end {
			winEnd = end
		}
		if err := fs.breakOne(ctx, in, i-1, cur, winEnd); err != nil {
			return changed, err
		}
		changed = true
		cur = winEnd
	}
	return changed, nil
}

// breakOne unshares logical blocks [cur, winEnd) of the protected extent at
// index idx: if any covered block still has extra references the window is
// copied to fresh blocks and the originals lose this file's reference;
// otherwise (every other owner already broke or deleted) the flag is
// cleared in place. The extent is split into up to three pieces with the
// middle one unprotected.
func (fs *FS) breakOne(ctx *sim.Proc, in *inode, idx int, cur, winEnd uint64) error {
	e := in.extents[idx]
	physAt := func(l uint64) uint64 { return e.Physical + (l - e.Logical) }
	shared := false
	for b := cur; b < winEnd; b++ {
		if fs.refGet(physAt(b)) > 0 {
			shared = true
			break
		}
	}
	var mid []extent.Run
	if !shared {
		mid = []extent.Run{{Logical: cur, Physical: physAt(cur), Count: winEnd - cur}}
	} else {
		// Data lands on the new blocks before the metadata commits; until
		// then the new blocks read as free on disk, so a crash mid-copy
		// rolls the whole break back.
		img := make([]byte, fs.bs)
		rem := winEnd - cur
		l := cur
		for rem > 0 {
			start, got := fs.allocRun(fs.allocHint, rem)
			if got == 0 {
				for _, r := range mid {
					fs.freeRun(r.Physical, r.Count)
				}
				return ErrNoSpace
			}
			for o := uint64(0); o < got; o++ {
				fs.DataBlockReads++
				if err := fs.dev.ReadBlocks(ctx, int64(physAt(l+o)), img); err != nil {
					return err
				}
				fs.DataBlockWrites++
				if err := fs.devWrite(ctx, int64(start+o), img); err != nil {
					return err
				}
			}
			mid = append(mid, extent.Run{Logical: l, Physical: start, Count: got})
			l += got
			rem -= got
		}
		fs.freeRun(physAt(cur), winEnd-cur)
	}
	var repl []extent.Run
	if cur > e.Logical {
		repl = append(repl, extent.Run{Logical: e.Logical, Physical: e.Physical, Count: cur - e.Logical, Flags: e.Flags})
	}
	repl = append(repl, mid...)
	if winEnd < e.End() {
		repl = append(repl, extent.Run{Logical: winEnd, Physical: physAt(winEnd), Count: e.End() - winEnd, Flags: e.Flags})
	}
	spliceExtent(in, idx, repl)
	fs.allocSeq++
	fs.CowBreaks++
	return nil
}

// spliceExtent replaces in.extents[idx] with repl (sorted runs covering the
// same logical span), in place: an inode's list is its own — Snapshot copies
// it for the clone — and repl never aliases it.
func spliceExtent(in *inode, idx int, repl []extent.Run) {
	in.extents = slices.Replace(in.extents, idx, idx+1, repl...)
}
