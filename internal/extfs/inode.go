package extfs

import (
	"encoding/binary"
	"fmt"

	"nesc/internal/extent"
	"nesc/internal/sim"
)

// On-disk inode layout (128 bytes, big-endian):
//
//	mode      uint16
//	links     uint16
//	uid       uint32
//	size      uint64
//	extCount  uint32   total extents (inline + spilled)
//	overflow  uint64   first overflow block (0 = none)
//	inline    5 × {logical uint64, physical uint64, count uint32}
//
// Extents past the inline capacity spill to a chain of overflow blocks:
//
//	magic uint32, count uint32, next uint64, entries 20 bytes each.
const (
	ovfMagic  = 0x584F5646 // "XOVF"
	ovfHeader = 16
	extEntry  = 20

	// countProtectBit marks a write-protected (CoW shared) extent in the
	// on-disk count word. The 20-byte entry has no spare bytes (5 inline
	// entries + the 28-byte fixed header exactly fill the 128-byte inode),
	// and extents never approach 2^31 blocks, so the top bit of count is
	// free to carry the flag.
	countProtectBit = uint32(1) << 31
)

// packExtCount encodes a run's block count and protect flag into the on-disk
// count word; unpackExtCount is its inverse.
func packExtCount(r extent.Run) uint32 {
	c := uint32(r.Count)
	if r.Flags&extent.FlagProtected != 0 {
		c |= countProtectBit
	}
	return c
}

func unpackExtCount(raw uint32) (count uint64, flags uint32) {
	if raw&countProtectBit != 0 {
		return uint64(raw &^ countProtectBit), extent.FlagProtected
	}
	return uint64(raw), 0
}

func (fs *FS) ovfEntriesPerBlock() int { return (fs.bs - ovfHeader) / extEntry }

func encodeInode(b []byte, in *inode) {
	clear(b[:InodeSize])
	if !in.used {
		return
	}
	binary.BigEndian.PutUint16(b[0:], in.mode)
	binary.BigEndian.PutUint16(b[2:], in.links)
	binary.BigEndian.PutUint32(b[4:], in.uid)
	binary.BigEndian.PutUint64(b[8:], in.size)
	binary.BigEndian.PutUint32(b[16:], uint32(len(in.extents)))
	var ovf uint64
	if len(in.overflow) > 0 {
		ovf = in.overflow[0]
	}
	binary.BigEndian.PutUint64(b[20:], ovf)
	n := len(in.extents)
	if n > inlineExtents {
		n = inlineExtents
	}
	for i := 0; i < n; i++ {
		off := 28 + i*extEntry
		binary.BigEndian.PutUint64(b[off:], in.extents[i].Logical)
		binary.BigEndian.PutUint64(b[off+8:], in.extents[i].Physical)
		binary.BigEndian.PutUint32(b[off+16:], packExtCount(in.extents[i]))
	}
}

// decodeInode fills in the fixed fields and inline extents; overflow extents
// are loaded separately because they need device reads.
func decodeInode(b []byte, in *inode) (extCount int, overflowBlk uint64) {
	in.mode = binary.BigEndian.Uint16(b[0:])
	in.links = binary.BigEndian.Uint16(b[2:])
	in.uid = binary.BigEndian.Uint32(b[4:])
	in.size = binary.BigEndian.Uint64(b[8:])
	in.used = in.mode != 0
	extCount = int(binary.BigEndian.Uint32(b[16:]))
	overflowBlk = binary.BigEndian.Uint64(b[20:])
	n := extCount
	if n > inlineExtents {
		n = inlineExtents
	}
	in.extents = make([]extent.Run, 0, extCount)
	for i := 0; i < n; i++ {
		off := 28 + i*extEntry
		count, flags := unpackExtCount(binary.BigEndian.Uint32(b[off+16:]))
		in.extents = append(in.extents, extent.Run{
			Logical:  binary.BigEndian.Uint64(b[off:]),
			Physical: binary.BigEndian.Uint64(b[off+8:]),
			Count:    count,
			Flags:    flags,
		})
	}
	return extCount, overflowBlk
}

// inodeBlock reports which device block holds inode ino and the byte offset
// within it.
func (fs *FS) inodeBlock(ino uint32) (int64, int) {
	byteOff := uint64(ino-1) * InodeSize
	return int64(fs.sb.inodeTableStart + byteOff/uint64(fs.bs)), int(byteOff % uint64(fs.bs))
}

// writeInode serializes the disk block containing ino (and its neighbours in
// the same block) into the current transaction, spilling extents to overflow
// blocks as needed.
func (fs *FS) writeInode(ctx *sim.Proc, ino uint32) error {
	in := &fs.inodes[ino]
	if err := fs.syncOverflow(ctx, in); err != nil {
		return err
	}
	blk, _ := fs.inodeBlock(ino)
	img := fs.scratch
	fs.renderInodeBlock(img, uint64(blk)-fs.sb.inodeTableStart)
	return fs.writeBlock(ctx, blk, img, true)
}

// renderInodeBlock fills img with the image of inode-table block b.
func (fs *FS) renderInodeBlock(img []byte, b uint64) {
	clear(img)
	perBlock := fs.bs / InodeSize
	for i := 0; i < perBlock; i++ {
		ino := uint32(b)*uint32(perBlock) + uint32(i) + 1
		if int(ino) >= len(fs.inodes) {
			break
		}
		encodeInode(img[i*InodeSize:], &fs.inodes[ino])
	}
}

// syncOverflow (re)writes the overflow chain for extents beyond the inline
// capacity, allocating or freeing chain blocks as the extent count changes.
func (fs *FS) syncOverflow(ctx *sim.Proc, in *inode) error {
	spill := 0
	if len(in.extents) > inlineExtents {
		spill = len(in.extents) - inlineExtents
	}
	per := fs.ovfEntriesPerBlock()
	needBlocks := (spill + per - 1) / per
	// Adjust chain length.
	for len(in.overflow) > needBlocks {
		last := in.overflow[len(in.overflow)-1]
		fs.freeRun(last, 1)
		in.overflow = in.overflow[:len(in.overflow)-1]
	}
	for len(in.overflow) < needBlocks {
		start, n := fs.allocRun(fs.allocHint, 1)
		if n == 0 {
			return ErrNoSpace
		}
		in.overflow = append(in.overflow, start)
	}
	if needBlocks == 0 {
		return nil
	}
	img := fs.scratch
	for bi := 0; bi < needBlocks; bi++ {
		clear(img)
		lo := inlineExtents + bi*per
		hi := lo + per
		if hi > len(in.extents) {
			hi = len(in.extents)
		}
		binary.BigEndian.PutUint32(img[0:], ovfMagic)
		binary.BigEndian.PutUint32(img[4:], uint32(hi-lo))
		if bi+1 < needBlocks {
			binary.BigEndian.PutUint64(img[8:], in.overflow[bi+1])
		}
		for i := lo; i < hi; i++ {
			off := ovfHeader + (i-lo)*extEntry
			binary.BigEndian.PutUint64(img[off:], in.extents[i].Logical)
			binary.BigEndian.PutUint64(img[off+8:], in.extents[i].Physical)
			binary.BigEndian.PutUint32(img[off+16:], packExtCount(in.extents[i]))
		}
		if err := fs.writeBlock(ctx, int64(in.overflow[bi]), img, true); err != nil {
			return err
		}
	}
	return nil
}

// loadInodeTable reads all inodes (and their overflow chains) into memory.
func (fs *FS) loadInodeTable(ctx *sim.Proc) error {
	img := make([]byte, fs.bs)
	perBlock := fs.bs / InodeSize
	for b := uint64(0); b < fs.sb.inodeTableBlocks; b++ {
		if err := fs.dev.ReadBlocks(ctx, int64(fs.sb.inodeTableStart+b), img); err != nil {
			return err
		}
		for i := 0; i < perBlock; i++ {
			ino := uint32(b)*uint32(perBlock) + uint32(i) + 1
			if int(ino) >= len(fs.inodes) {
				break
			}
			in := &fs.inodes[ino]
			extCount, ovf := decodeInode(img[i*InodeSize:], in)
			if !in.used {
				continue
			}
			if err := fs.loadOverflow(ctx, in, extCount, ovf); err != nil {
				return fmt.Errorf("extfs: inode %d: %w", ino, err)
			}
		}
	}
	return nil
}

func (fs *FS) loadOverflow(ctx *sim.Proc, in *inode, extCount int, ovf uint64) error {
	in.overflow = nil
	img := make([]byte, fs.bs)
	for ovf != 0 {
		if err := fs.dev.ReadBlocks(ctx, int64(ovf), img); err != nil {
			return err
		}
		if binary.BigEndian.Uint32(img[0:]) != ovfMagic {
			return fmt.Errorf("bad overflow block magic at %d", ovf)
		}
		in.overflow = append(in.overflow, ovf)
		count := int(binary.BigEndian.Uint32(img[4:]))
		next := binary.BigEndian.Uint64(img[8:])
		for i := 0; i < count; i++ {
			off := ovfHeader + i*extEntry
			c, flags := unpackExtCount(binary.BigEndian.Uint32(img[off+16:]))
			in.extents = append(in.extents, extent.Run{
				Logical:  binary.BigEndian.Uint64(img[off:]),
				Physical: binary.BigEndian.Uint64(img[off+8:]),
				Count:    c,
				Flags:    flags,
			})
		}
		ovf = next
	}
	if len(in.extents) != extCount {
		return fmt.Errorf("extent count mismatch: inode says %d, loaded %d", extCount, len(in.extents))
	}
	return nil
}

// allocInode finds a free inode slot.
func (fs *FS) allocInode() (uint32, error) {
	for i := uint32(1); i < uint32(len(fs.inodes)); i++ {
		if !fs.inodes[i].used {
			return i, nil
		}
	}
	return 0, fmt.Errorf("extfs: out of inodes")
}

// Access checks POSIX-style permission bits for uid against inode in.
// uid 0 (the hypervisor/root) is always allowed.
func accessOK(in *inode, uid uint32, perm uint16) bool {
	if uid == 0 {
		return true
	}
	var bits uint16
	if uid == in.uid {
		bits = (in.mode >> 6) & 7
	} else {
		bits = in.mode & 7
	}
	return bits&perm == perm
}
