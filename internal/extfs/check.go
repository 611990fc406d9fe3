package extfs

import (
	"fmt"

	"nesc/internal/sim"
)

// Check is the fsck: it validates the cross-structure invariants that the
// property tests (and the VF-creation path) rely on. It returns the first
// violation found.
//
// Invariants:
//  1. every metadata block (including the refcount table, if allocated) is
//     marked allocated in the bitmap;
//  2. every extent and overflow block of a used inode lies in the data
//     region, is marked allocated, and is referenced exactly 1 + its extra
//     (CoW) reference count times;
//  3. a block referenced more than once is reached only through
//     write-protected extents;
//  4. every allocated data block is referenced (no leaks), and no free
//     block carries a reference count;
//  5. no extent extends past the file's size (rounded up to a block);
//  6. directory entries reference used inodes, and directory link counts
//     are 2 + number of subdirectories.
func (fs *FS) Check(ctx *sim.Proc) error {
	if err := fs.begin(ctx); err != nil {
		return err
	}
	defer fs.end(ctx)

	for b := uint64(0); b < fs.sb.dataStart; b++ {
		if !fs.bitmapGet(b) {
			return fmt.Errorf("extfs: metadata block %d not marked allocated", b)
		}
	}
	inRefcntTable := func(b uint64) bool {
		return fs.sb.refcntStart != 0 && b >= fs.sb.refcntStart && b < fs.sb.refcntStart+fs.sb.refcntBlocks
	}

	refs := make(map[uint64][]uint32) // block -> referencing inodes
	unprot := make(map[uint64]bool)   // block reached via an unprotected extent
	ref := func(blk uint64, ino uint32, protected bool) error {
		if blk < fs.sb.dataStart || blk >= fs.sb.numBlocks {
			return fmt.Errorf("extfs: inode %d references block %d outside data region", ino, blk)
		}
		if inRefcntTable(blk) {
			return fmt.Errorf("extfs: inode %d references refcount-table block %d", ino, blk)
		}
		if !fs.bitmapGet(blk) {
			return fmt.Errorf("extfs: inode %d references free block %d", ino, blk)
		}
		refs[blk] = append(refs[blk], ino)
		if !protected {
			unprot[blk] = true
		}
		return nil
	}

	bs := uint64(fs.bs)
	for ino := uint32(1); ino < uint32(len(fs.inodes)); ino++ {
		in := &fs.inodes[ino]
		if !in.used {
			continue
		}
		maxBlk := (in.size + bs - 1) / bs
		var prevEnd uint64
		for i, e := range in.extents {
			if i > 0 && e.Logical < prevEnd {
				return fmt.Errorf("extfs: inode %d extents unsorted/overlapping at %d", ino, e.Logical)
			}
			prevEnd = e.End()
			if e.End() > maxBlk {
				return fmt.Errorf("extfs: inode %d extent [%d,%d) past size %d", ino, e.Logical, e.End(), in.size)
			}
			for b := e.Physical; b < e.Physical+e.Count; b++ {
				if err := ref(b, ino, e.Protected()); err != nil {
					return err
				}
			}
		}
		for _, l := range in.overflow {
			if err := ref(l.blk, ino, false); err != nil {
				return err
			}
		}
	}

	for b := fs.sb.dataStart; b < fs.sb.numBlocks; b++ {
		if inRefcntTable(b) {
			if !fs.bitmapGet(b) {
				return fmt.Errorf("extfs: refcount-table block %d not marked allocated", b)
			}
			continue
		}
		n := uint32(len(refs[b]))
		extra := fs.refGet(b)
		if fs.bitmapGet(b) {
			if n == 0 {
				return fmt.Errorf("extfs: block %d allocated but unreferenced (leak)", b)
			}
			if n != 1+extra {
				return fmt.Errorf("extfs: block %d has %d references but refcount says %d", b, n, 1+extra)
			}
			if n > 1 && unprot[b] {
				return fmt.Errorf("extfs: shared block %d reached via unprotected extent (inodes %v)", b, refs[b])
			}
		} else if extra != 0 {
			return fmt.Errorf("extfs: free block %d carries refcount %d", b, extra)
		}
	}

	// Directory structure.
	subdirs := make(map[uint32]uint16)
	seenChild := make(map[uint32]bool)
	for ino := uint32(1); ino < uint32(len(fs.inodes)); ino++ {
		in := &fs.inodes[ino]
		if !in.used || !in.isDir() {
			continue
		}
		data, err := fs.readDirData(ctx, in)
		if err != nil {
			return err
		}
		for off := 0; off+DirentSize <= len(data); off += DirentSize {
			child, name := decodeDirent(data[off:])
			if child == 0 {
				continue
			}
			if int(child) >= len(fs.inodes) || !fs.inodes[child].used {
				return fmt.Errorf("extfs: dir %d entry %q references unused inode %d", ino, name, child)
			}
			if seenChild[child] {
				return fmt.Errorf("extfs: inode %d linked twice", child)
			}
			seenChild[child] = true
			if fs.inodes[child].isDir() {
				subdirs[ino]++
			}
		}
	}
	for ino := uint32(1); ino < uint32(len(fs.inodes)); ino++ {
		in := &fs.inodes[ino]
		if !in.used {
			continue
		}
		if in.isDir() {
			if want := 2 + subdirs[ino]; in.links != want {
				return fmt.Errorf("extfs: dir %d link count %d, want %d", ino, in.links, want)
			}
			if ino != RootIno && !seenChild[ino] {
				return fmt.Errorf("extfs: dir inode %d orphaned", ino)
			}
		} else if ino != RootIno && !seenChild[ino] {
			return fmt.Errorf("extfs: file inode %d orphaned", ino)
		}
	}
	return nil
}
