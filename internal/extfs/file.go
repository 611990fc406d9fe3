package extfs

import (
	"fmt"
	"io"
	"sort"

	"nesc/internal/extent"
	"nesc/internal/sim"
)

// Extent-map manipulation and the file data path.

// mapLookup finds the physical block backing logical block lblk of inode in,
// returning the physical block, the number of contiguously mapped blocks
// from lblk, and whether a mapping exists.
func mapLookup(in *inode, lblk uint64) (uint64, uint64, bool) {
	exts := in.extents
	i := sort.Search(len(exts), func(i int) bool { return exts[i].Logical > lblk })
	if i == 0 {
		return 0, 0, false
	}
	e := exts[i-1]
	if lblk >= e.End() {
		return 0, 0, false
	}
	off := lblk - e.Logical
	return e.Physical + off, e.Count - off, true
}

// insertMapping adds a run to the inode's extent map, merging with adjacent
// extents when both logical and physical spaces are contiguous and the flag
// bits match (a protected extent must never absorb unprotected blocks, or
// the CoW break would copy too much — and vice versa).
func insertMapping(in *inode, r extent.Run) {
	exts := in.extents
	i := sort.Search(len(exts), func(i int) bool { return exts[i].Logical > r.Logical })
	// Try merging with the predecessor.
	if i > 0 {
		p := &exts[i-1]
		if p.End() == r.Logical && p.Physical+p.Count == r.Physical && p.Flags == r.Flags {
			p.Count += r.Count
			// Try merging the successor too.
			if i < len(exts) {
				s := exts[i]
				if p.End() == s.Logical && p.Physical+p.Count == s.Physical && p.Flags == s.Flags {
					p.Count += s.Count
					in.extents = append(exts[:i], exts[i+1:]...)
				}
			}
			return
		}
	}
	// Try merging with the successor.
	if i < len(exts) {
		s := &exts[i]
		if r.End() == s.Logical && r.Physical+r.Count == s.Physical && r.Flags == s.Flags {
			s.Logical = r.Logical
			s.Physical = r.Physical
			s.Count += r.Count
			return
		}
	}
	in.extents = append(exts, extent.Run{})
	copy(in.extents[i+1:], in.extents[i:])
	in.extents[i] = r
}

// ensureAllocated backs every hole in logical blocks [lblk, lblk+n) with
// freshly allocated (and zeroed) physical blocks. Newly allocated blocks are
// zero-filled on disk so stale contents of reused blocks can never leak into
// a file — the isolation property NeSC inherits from the filesystem.
func (fs *FS) ensureAllocated(ctx *sim.Proc, in *inode, lblk, n uint64, zeroFill bool) error {
	end := lblk + n
	for cur := lblk; cur < end; {
		if _, runLen, ok := mapLookup(in, cur); ok {
			cur += runLen
			continue
		}
		// Hole: find its extent (up to the next mapped block or range end).
		holeEnd := end
		i := sort.Search(len(in.extents), func(i int) bool { return in.extents[i].Logical > cur })
		if i < len(in.extents) && in.extents[i].Logical < holeEnd {
			holeEnd = in.extents[i].Logical
		}
		want := holeEnd - cur
		start, got := fs.allocRun(fs.allocHint, want)
		if got == 0 {
			return ErrNoSpace
		}
		if zeroFill {
			if err := fs.zeroBlocks(ctx, start, got); err != nil {
				fs.freeRun(start, got) // nothing maps it yet
				return err
			}
		}
		insertMapping(in, extent.Run{Logical: cur, Physical: start, Count: got})
		cur += got
	}
	return nil
}

func (fs *FS) zeroBlocks(ctx *sim.Proc, pblk, n uint64) error {
	fs.DataBlockWrites += int64(n)
	return fs.devWrite(ctx, int64(pblk), fs.zeroRun(n))
}

// zeroRun returns n blocks of zeros; nothing ever writes into them. Runs up to
// maxKeptZeros bytes (every lazy-allocation miss) share one buffer; a whole
// image's makes its own rather than pin an image-sized buffer for good.
func (fs *FS) zeroRun(n uint64) []byte {
	const maxKeptZeros = 1 << 20
	size := int(n) * fs.bs
	if size > maxKeptZeros {
		return make([]byte, size)
	}
	if len(fs.zeros) < size {
		fs.zeros = make([]byte, size)
	}
	return fs.zeros[:size]
}

// readRange reads len(p) bytes at byte offset off from the inode's data,
// returning zeros for holes. The caller bounds the range to the file size.
func (fs *FS) readRange(ctx *sim.Proc, in *inode, off uint64, p []byte) error {
	bs := uint64(fs.bs)
	pos := uint64(0)
	for pos < uint64(len(p)) {
		cur := off + pos
		lblk := cur / bs
		inBlk := cur % bs
		pblk, runLen, ok := mapLookup(in, lblk)
		if !ok {
			// Hole: zero until the next mapped extent or end of request.
			holeEnd := uint64(len(p))
			i := sort.Search(len(in.extents), func(i int) bool { return in.extents[i].Logical > lblk })
			if i < len(in.extents) {
				nb := in.extents[i].Logical * bs
				if nb > cur && nb-off < holeEnd {
					holeEnd = nb - off
				}
			}
			clear(p[pos:holeEnd])
			pos = holeEnd
			continue
		}
		// Contiguous mapped span: read as one device operation.
		spanBytes := runLen*bs - inBlk
		if rem := uint64(len(p)) - pos; spanBytes > rem {
			spanBytes = rem
		}
		if inBlk == 0 && spanBytes%bs == 0 {
			fs.DataBlockReads += int64(spanBytes / bs)
			if err := fs.dev.ReadBlocks(ctx, int64(pblk), p[pos:pos+spanBytes]); err != nil {
				return err
			}
		} else {
			// Unaligned edge: read covering whole blocks and copy out.
			firstB := pblk
			nBlocks := (inBlk + spanBytes + bs - 1) / bs
			tmp := fs.scratch
			if nBlocks > 1 {
				tmp = make([]byte, nBlocks*bs)
			}
			fs.DataBlockReads += int64(nBlocks)
			if err := fs.dev.ReadBlocks(ctx, int64(firstB), tmp); err != nil {
				return err
			}
			copy(p[pos:pos+spanBytes], tmp[inBlk:])
		}
		pos += spanBytes
	}
	return nil
}

// writeRange writes p at byte offset off, allocating backing blocks for
// holes. meta marks directory data (journaled under metadata mode).
func (fs *FS) writeRange(ctx *sim.Proc, in *inode, off uint64, p []byte, meta bool) error {
	if len(p) == 0 {
		return nil
	}
	bs := uint64(fs.bs)
	firstBlk := off / bs
	lastBlk := (off + uint64(len(p)) - 1) / bs
	// Partially covered edge blocks need read-modify-write; when freshly
	// allocated they are zero-filled first so stale block contents cannot
	// leak. Fully covered blocks are simply overwritten, so zero-filling
	// them would only double write traffic.
	firstPartial := off%bs != 0
	lastPartial := (off+uint64(len(p)))%bs != 0
	interiorStart, interiorEnd := firstBlk, lastBlk+1
	if firstBlk == lastBlk {
		if err := fs.ensureAllocated(ctx, in, firstBlk, 1, firstPartial || lastPartial); err != nil {
			return err
		}
		interiorStart, interiorEnd = 0, 0
	} else {
		if firstPartial {
			if err := fs.ensureAllocated(ctx, in, firstBlk, 1, true); err != nil {
				return err
			}
			interiorStart = firstBlk + 1
		}
		if lastPartial {
			if err := fs.ensureAllocated(ctx, in, lastBlk, 1, true); err != nil {
				return err
			}
			interiorEnd = lastBlk
		}
	}
	if interiorEnd > interiorStart {
		if err := fs.ensureAllocated(ctx, in, interiorStart, interiorEnd-interiorStart, false); err != nil {
			return err
		}
	}

	pos := uint64(0)
	for pos < uint64(len(p)) {
		cur := off + pos
		lblk := cur / bs
		inBlk := cur % bs
		pblk, runLen, ok := mapLookup(in, lblk)
		if !ok {
			return fmt.Errorf("extfs: internal: unallocated block %d after ensureAllocated", lblk)
		}
		spanBytes := runLen*bs - inBlk
		if rem := uint64(len(p)) - pos; spanBytes > rem {
			spanBytes = rem
		}
		if inBlk == 0 && spanBytes%bs == 0 {
			// Whole-block span.
			nBlocks := spanBytes / bs
			fs.countDataWrite(meta, int64(nBlocks))
			if err := fs.writeDataSpan(ctx, pblk, p[pos:pos+spanBytes], meta); err != nil {
				return err
			}
		} else {
			// Partial edge: RMW one block (zero-filled if fresh).
			img := make([]byte, bs)
			fs.DataBlockReads++
			if err := fs.dev.ReadBlocks(ctx, int64(pblk), img); err != nil {
				return err
			}
			n := copy(img[inBlk:], p[pos:])
			if uint64(n) > spanBytes {
				n = int(spanBytes)
			}
			fs.countDataWrite(meta, 1)
			if err := fs.writeDataSpan(ctx, pblk, img, meta); err != nil {
				return err
			}
			spanBytes = uint64(n)
		}
		pos += spanBytes
	}
	if end := off + uint64(len(p)); end > in.size {
		in.size = end
	}
	return nil
}

func (fs *FS) countDataWrite(meta bool, n int64) {
	if meta {
		fs.MetaBlockWrites += n
	} else {
		fs.DataBlockWrites += n
	}
}

// writeDataSpan routes a whole-block span through the journal policy:
// metadata (directory) blocks and — under JournalFull — data blocks go
// block-by-block into the transaction; otherwise the span is written in one
// device operation.
func (fs *FS) writeDataSpan(ctx *sim.Proc, pblk uint64, p []byte, meta bool) error {
	journal := fs.tx != nil && (meta || fs.sb.mode == JournalFull)
	if !journal {
		return fs.devWrite(ctx, int64(pblk), p)
	}
	bs := uint64(fs.bs)
	for i := uint64(0); i < uint64(len(p))/bs; i++ {
		if err := fs.writeBlock(ctx, int64(pblk+i), p[i*bs:(i+1)*bs], meta); err != nil {
			return err
		}
		// writeBlock counted nothing (buffered); commit counts home writes.
		fs.uncountBuffered(meta)
	}
	return nil
}

// uncountBuffered compensates counters for buffered writes, which are
// counted at checkpoint time instead.
func (fs *FS) uncountBuffered(meta bool) {
	// writeBlock only counts on the direct path, so nothing to undo; the
	// caller pre-counted the span, so remove that.
	if meta {
		fs.MetaBlockWrites--
	} else {
		fs.DataBlockWrites--
	}
}

// truncateTo shrinks or grows the file to size bytes, freeing blocks beyond
// the last retained block on shrink. Growth is sparse (no allocation). On a
// shrink that leaves a partially used last block, the tail of that block is
// zeroed on disk so later growth cannot resurrect stale bytes.
func (fs *FS) truncateTo(ctx *sim.Proc, in *inode, size uint64) error {
	bs := uint64(fs.bs)
	keep := (size + bs - 1) / bs
	shrinking := size < in.size
	var kept []extent.Run
	for _, e := range in.extents {
		switch {
		case e.End() <= keep:
			kept = append(kept, e)
		case e.Logical >= keep:
			fs.freeRun(e.Physical, e.Count)
		default:
			n := keep - e.Logical
			kept = append(kept, extent.Run{Logical: e.Logical, Physical: e.Physical, Count: n, Flags: e.Flags})
			fs.freeRun(e.Physical+n, e.Count-n)
		}
	}
	in.extents = kept
	in.size = size
	if shrinking && size%bs != 0 {
		// The last block is rewritten in place below, so it must not be
		// shared with a snapshot.
		if _, err := fs.breakShareLocked(ctx, in, size/bs, 1); err != nil {
			return err
		}
		if pblk, _, ok := mapLookup(in, size/bs); ok {
			img := make([]byte, bs)
			fs.DataBlockReads++
			if err := fs.dev.ReadBlocks(ctx, int64(pblk), img); err != nil {
				return err
			}
			clear(img[size%bs:])
			fs.DataBlockWrites++
			if err := fs.devWrite(ctx, int64(pblk), img); err != nil {
				return err
			}
		}
	}
	return nil
}

// File is an open handle.
type File struct {
	fs       *FS
	ino      uint32
	writable bool
}

// Size reports the file size in bytes.
func (f *File) Size() uint64 { return f.fs.inodes[f.ino].size }

// ReadAt reads len(p) bytes at offset off. Holes read as zeros. Reads past
// EOF are truncated and return io.EOF.
func (f *File) ReadAt(ctx *sim.Proc, p []byte, off int64) (int, error) {
	fs := f.fs
	if err := fs.begin(ctx); err != nil {
		return 0, err
	}
	defer fs.end(ctx)
	in := &fs.inodes[f.ino]
	if off < 0 {
		return 0, fmt.Errorf("extfs: negative offset")
	}
	if uint64(off) >= in.size {
		return 0, io.EOF
	}
	n := len(p)
	var eof error
	if uint64(off)+uint64(n) > in.size {
		n = int(in.size - uint64(off))
		eof = io.EOF
	}
	if err := fs.readRange(ctx, in, uint64(off), p[:n]); err != nil {
		return 0, err
	}
	return n, eof
}

// WriteAt writes p at offset off, allocating blocks lazily and extending the
// file as needed.
func (f *File) WriteAt(ctx *sim.Proc, p []byte, off int64) (int, error) {
	if err := f.fs.transact(ctx, func() error { return f.writeLocked(ctx, p, off) }); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f *File) writeLocked(ctx *sim.Proc, p []byte, off int64) error {
	fs := f.fs
	if !f.writable {
		return ErrPerm
	}
	if off < 0 {
		return fmt.Errorf("extfs: negative offset")
	}
	in := &fs.inodes[f.ino]
	sizeBefore, allocBefore := in.size, fs.allocSeq
	// Unshare any CoW-protected blocks in the write range first: writeRange
	// overwrites mapped blocks in place, which must never touch a block a
	// snapshot still references.
	broke := false
	if len(p) > 0 {
		bs := uint64(fs.bs)
		first := uint64(off) / bs
		last := (uint64(off) + uint64(len(p)) - 1) / bs
		b, err := fs.breakShareLocked(ctx, in, first, last-first+1)
		if err != nil {
			return err
		}
		broke = b
	}
	if err := fs.writeRange(ctx, in, uint64(off), p, false); err != nil {
		return err
	}
	// Overwrites of already-allocated blocks change no metadata, so — like
	// a real filesystem — they skip the inode write and its journaling.
	if broke || in.size != sizeBefore || fs.allocSeq != allocBefore {
		return fs.writeInode(ctx, f.ino)
	}
	return nil
}

// Truncate sets the file size, freeing blocks on shrink.
func (f *File) Truncate(ctx *sim.Proc, size uint64) error {
	fs := f.fs
	return fs.transact(ctx, func() error {
		if !f.writable {
			return ErrPerm
		}
		if err := fs.truncateTo(ctx, &fs.inodes[f.ino], size); err != nil {
			return err
		}
		return fs.writeInode(ctx, f.ino)
	})
}

// Sync flushes the underlying device.
func (f *File) Sync(ctx *sim.Proc) error {
	if err := f.fs.begin(ctx); err != nil {
		return err
	}
	defer f.fs.end(ctx)
	return f.fs.dev.Flush(ctx)
}
