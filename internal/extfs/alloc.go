package extfs

// Block allocation: a bitmap over the whole volume with a greedy contiguous
// search, so sequential writes produce long extents — the property NeSC's
// per-VF extent trees (and their BTLB hit rates) depend on.

func (fs *FS) bitmapGet(b uint64) bool {
	return fs.bitmap[b/8]&(1<<(b%8)) != 0
}

func (fs *FS) bitmapSet(b uint64, v bool) {
	if v {
		fs.bitmap[b/8] |= 1 << (b % 8)
	} else {
		fs.bitmap[b/8] &^= 1 << (b % 8)
	}
	fs.dirtyBitmap(b)
}

// dirtyBitmap records that the bitmap disk block covering volume block b
// needs to be written out with the current transaction.
func (fs *FS) dirtyBitmap(b uint64) {
	if fs.dirtyBitmapBlks == nil {
		fs.dirtyBitmapBlks = make(map[uint64]struct{})
	}
	fs.dirtyBitmapBlks[b/8/uint64(fs.bs)] = struct{}{}
}

// allocRun reserves up to want contiguous free blocks, preferring the area
// at/after hint, and returns (start, length). Length 0 means the volume is
// full. Only data-region blocks are eligible.
func (fs *FS) allocRun(hint, want uint64) (uint64, uint64) {
	if want == 0 {
		return 0, 0
	}
	lo := fs.sb.dataStart
	hi := fs.sb.numBlocks
	if hint < lo || hint >= hi {
		hint = lo
	}
	scan := func(from, to uint64) (uint64, uint64) {
		b := from
		for b < to {
			if fs.bitmapGet(b) {
				b++
				continue
			}
			start := b
			for b < to && b-start < want && !fs.bitmapGet(b) {
				b++
			}
			return start, b - start
		}
		return 0, 0
	}
	start, n := scan(hint, hi)
	if n == 0 {
		start, n = scan(lo, hint)
	}
	if n == 0 {
		return 0, 0
	}
	for b := start; b < start+n; b++ {
		fs.bitmapSet(b, true)
	}
	fs.allocHint = start + n
	fs.allocSeq++
	return start, n
}

// freeRun releases one reference to a contiguous run of blocks. A block with
// extra references (CoW shared) just loses one count; a sole-owner block
// returns to the bitmap. In a running group both wait until every body has
// run: until the record that drops the reference lands, no later body may
// allocate the block, or find it unshared and overwrite it in place.
func (fs *FS) freeRun(start, n uint64) {
	for b := start; b < start+n; b++ {
		if !fs.bitmapGet(b) {
			panic("extfs: double free of block")
		}
		if g := fs.running; g != nil {
			g.freed = append(g.freed, b)
			continue
		}
		if fs.refGet(b) > 0 {
			fs.refAdd(b, -1)
			continue
		}
		fs.bitmapSet(b, false)
	}
	fs.allocSeq++
}

// FreeBlocks reports the number of unallocated blocks (df).
func (fs *FS) FreeBlocks() uint64 {
	var n uint64
	for b := fs.sb.dataStart; b < fs.sb.numBlocks; b++ {
		if !fs.bitmapGet(b) {
			n++
		}
	}
	return n
}
