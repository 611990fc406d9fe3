// Package extfs implements the extent-based filesystem of the NeSC stack.
//
// NeSC's protection model (paper §IV) is built on the observation that
// "modern UNIX filesystems (e.g., ext4, btrfs, xfs) group contiguous
// physical blocks into extents and construct extent trees"; the hypervisor
// translates a file's extent map into the device's per-VF extent tree. This
// package provides that filesystem: an ext4-flavoured design with per-inode
// extent maps, lazy allocation (holes), owner/mode permissions, a redo
// journal with metadata-only and full-data modes (the nested-journaling
// discussion of §IV-D), and an exportable logical-to-physical mapping
// (File.Extents) that feeds VF creation.
//
// The same implementation runs as the hypervisor's filesystem on the
// physical device and as a guest filesystem inside a virtual disk, which is
// exactly the nested-filesystem structure whose overheads the paper
// measures.
package extfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"nesc/internal/extent"
	"nesc/internal/sim"
)

// JournalMode selects what the write-ahead journal captures.
type JournalMode int

const (
	// JournalNone disables the journal.
	JournalNone JournalMode = iota
	// JournalMetadata journals metadata blocks only (ext4 "ordered"-like);
	// the hypervisor-side recommendation for nested filesystems.
	JournalMetadata
	// JournalFull journals data blocks too (ext4 "journal" mode); doubles
	// data write traffic, which is what makes nested journaling expensive.
	JournalFull
)

func (m JournalMode) String() string {
	switch m {
	case JournalNone:
		return "none"
	case JournalMetadata:
		return "metadata"
	case JournalFull:
		return "full"
	default:
		return fmt.Sprintf("JournalMode(%d)", int(m))
	}
}

// Filesystem geometry and on-disk format constants.
const (
	sbMagic       = 0x4E455346 // "NESF"
	version       = 1
	InodeSize     = 128
	DirentSize    = 64
	MaxNameLen    = DirentSize - 6
	inlineExtents = 5
	// RootIno is the inode number of the root directory.
	RootIno = 1
	// Mode type bits (subset of POSIX).
	ModeDir  = 0x4000
	ModeFile = 0x8000
	// Permission bits for Access.
	PermRead  = 4
	PermWrite = 2
	PermExec  = 1
)

// Common errors.
var (
	ErrNotExist   = errors.New("extfs: no such file or directory")
	ErrExist      = errors.New("extfs: file exists")
	ErrPerm       = errors.New("extfs: permission denied")
	ErrNotDir     = errors.New("extfs: not a directory")
	ErrIsDir      = errors.New("extfs: is a directory")
	ErrNotEmpty   = errors.New("extfs: directory not empty")
	ErrNoSpace    = errors.New("extfs: no space left on device")
	ErrNameTooLng = errors.New("extfs: name too long")
	ErrDead       = errors.New("extfs: filesystem failed (crashed); remount to recover")
)

// Params configures Format and Mount.
type Params struct {
	// InodeCount is the inode table capacity (Format only).
	InodeCount int
	// JournalBlocks sizes the journal region (Format only).
	JournalBlocks int64
	// Mode selects the journaling mode (stored in the superblock).
	Mode JournalMode
	// OpCost is the CPU cost charged per public filesystem operation,
	// modeling the VFS + filesystem code path.
	OpCost sim.Time
}

// superblock is the decoded block-0 content.
type superblock struct {
	blockSize        uint32
	numBlocks        uint64
	inodeCount       uint32
	inodeTableStart  uint64
	inodeTableBlocks uint64
	bitmapStart      uint64
	bitmapBlocks     uint64
	journalStart     uint64
	journalBlocks    uint64
	dataStart        uint64
	mode             JournalMode
	// Snapshot support: the per-block reference-count table, allocated
	// lazily from the data region on the first Snapshot (0 = no table, the
	// state every freshly formatted volume is in).
	refcntStart  uint64
	refcntBlocks uint64
}

func (sb *superblock) encode(b []byte) {
	clear(b)
	binary.BigEndian.PutUint32(b[0:], sbMagic)
	binary.BigEndian.PutUint32(b[4:], version)
	binary.BigEndian.PutUint32(b[8:], sb.blockSize)
	binary.BigEndian.PutUint64(b[12:], sb.numBlocks)
	binary.BigEndian.PutUint32(b[20:], sb.inodeCount)
	binary.BigEndian.PutUint64(b[24:], sb.inodeTableStart)
	binary.BigEndian.PutUint64(b[32:], sb.inodeTableBlocks)
	binary.BigEndian.PutUint64(b[40:], sb.bitmapStart)
	binary.BigEndian.PutUint64(b[48:], sb.bitmapBlocks)
	binary.BigEndian.PutUint64(b[56:], sb.journalStart)
	binary.BigEndian.PutUint64(b[64:], sb.journalBlocks)
	binary.BigEndian.PutUint64(b[72:], sb.dataStart)
	binary.BigEndian.PutUint32(b[80:], uint32(sb.mode))
	binary.BigEndian.PutUint64(b[84:], sb.refcntStart)
	binary.BigEndian.PutUint64(b[92:], sb.refcntBlocks)
}

// decode reads block 0 of a device of devBlocks blocks of bs bytes.
func (sb *superblock) decode(b []byte, bs int, devBlocks uint64) error {
	if binary.BigEndian.Uint32(b[0:]) != sbMagic {
		return fmt.Errorf("extfs: bad superblock magic")
	}
	if v := binary.BigEndian.Uint32(b[4:]); v != version {
		return fmt.Errorf("extfs: unsupported version %d", v)
	}
	sb.blockSize = binary.BigEndian.Uint32(b[8:])
	sb.numBlocks = binary.BigEndian.Uint64(b[12:])
	sb.inodeCount = binary.BigEndian.Uint32(b[20:])
	sb.inodeTableStart = binary.BigEndian.Uint64(b[24:])
	sb.inodeTableBlocks = binary.BigEndian.Uint64(b[32:])
	sb.bitmapStart = binary.BigEndian.Uint64(b[40:])
	sb.bitmapBlocks = binary.BigEndian.Uint64(b[48:])
	sb.journalStart = binary.BigEndian.Uint64(b[56:])
	sb.journalBlocks = binary.BigEndian.Uint64(b[64:])
	sb.dataStart = binary.BigEndian.Uint64(b[72:])
	sb.mode = JournalMode(binary.BigEndian.Uint32(b[80:]))
	sb.refcntStart = binary.BigEndian.Uint64(b[84:])
	sb.refcntBlocks = binary.BigEndian.Uint64(b[92:])
	if int(sb.blockSize) != bs {
		return fmt.Errorf("extfs: superblock block size %d != device %d", sb.blockSize, bs)
	}
	return sb.check(devBlocks)
}

// check refuses a superblock whose geometry is not the one Format lays out on
// a device of devBlocks blocks: every table is sized from the counts, in
// order, and the refcount table, when there is one, lies in the data region.
// Mount sizes its tables from these numbers, so it checks them first.
func (sb *superblock) check(devBlocks uint64) error {
	bs := uint64(sb.blockSize)
	ceil := func(n uint64) uint64 { return (n + bs - 1) / bs }
	var refBlocks uint64
	if sb.dataStart < sb.numBlocks {
		refBlocks = ceil((sb.numBlocks - sb.dataStart) * refEntrySize)
	}
	switch {
	case sb.numBlocks > devBlocks:
		return fmt.Errorf("extfs: superblock says %d blocks, device has %d", sb.numBlocks, devBlocks)
	case sb.bitmapStart != 1 || sb.bitmapBlocks != ceil((sb.numBlocks+7)/8),
		sb.inodeTableStart != sb.bitmapStart+sb.bitmapBlocks,
		sb.inodeTableBlocks != ceil(uint64(sb.inodeCount)*InodeSize),
		sb.journalStart != sb.inodeTableStart+sb.inodeTableBlocks,
		sb.dataStart != sb.journalStart+sb.journalBlocks,
		sb.dataStart >= sb.numBlocks:
		return fmt.Errorf("extfs: superblock geometry does not add up")
	case sb.refcntStart != 0 && (sb.refcntStart < sb.dataStart || sb.refcntBlocks != refBlocks || sb.refcntStart+refBlocks > sb.numBlocks):
		return fmt.Errorf("extfs: refcount table [%d, +%d) does not fit the data region", sb.refcntStart, sb.refcntBlocks)
	}
	return nil
}

// inode is the in-memory (authoritative) form of an on-disk inode.
type inode struct {
	used     bool
	mode     uint16
	links    uint16
	uid      uint32
	size     uint64
	extents  []extent.Run // sorted, non-overlapping, FS-block units
	overflow []leaf       // the chain holding extents[inlineExtents:], in order
	// repack asks the next syncOverflow to rewrite the chain as full leaves:
	// set where the whole list changes at once, or nothing says which leaf.
	repack bool
}

// leaf is one block of an inode's overflow chain. syncOverflow leaves each
// holding between one and ovfEntriesPerBlock entries; in between, an insert
// or a removal changes one leaf's count and never shifts an entry into the
// next leaf (inode.touch).
type leaf struct {
	blk   uint64
	n     int  // entries it holds
	dirty bool // changed since the last commit that carried its image home
}

func (in *inode) isDir() bool  { return in.mode&ModeDir != 0 }
func (in *inode) isFile() bool { return in.mode&ModeFile != 0 }

// FS is a mounted filesystem instance.
type FS struct {
	dev    BlockDev
	bs     int
	sb     superblock
	bitmap []byte
	inodes []inode // index by ino; [0] unused
	opCost sim.Time

	lock *sim.Semaphore // created lazily from the first ctx's engine

	tx   *txState // the open transaction: &txBuf, or nil
	owed bool     // txBuf holds a committed transaction whose images are not all home
	// Reused by the transaction path, under the lock: the transaction buffer,
	// the record its images live in, the render scratch, zeros, and the data
	// run a fill or a copy moves.
	txBuf           txState
	record, scratch []byte
	zeros, run      []byte

	journalHead     uint64 // next free block offset within the journal region
	journalSeq      uint64
	dirtyBitmapBlks map[uint64]struct{}
	allocHint       uint64
	allocSeq        uint64 // bumped on any allocator mutation

	// Snapshot state: refcnt[i] counts EXTRA references to data block
	// dataStart+i (0 = sole owner); nil until the first Snapshot allocates
	// the on-disk table. Dirty table blocks are flushed with the bitmap so
	// every transaction that moves a count journals it.
	refcnt          []uint32
	dirtyRefcntBlks map[uint64]struct{}

	dead bool
	// failAfterCommit, when set, crashes the filesystem after the journal
	// commit record lands and before the home-location writes — the window
	// the journal exists to protect. Test hook.
	failAfterCommit bool

	// Counters for the nested-journaling and overhead experiments.
	MetaBlockWrites    int64
	DataBlockWrites    int64
	JournalBlockWrites int64
	DataBlockReads     int64
	Ops                int64
	// CowBreaks counts shared extents unshared (copied or unprotected in
	// place) by BreakShare.
	CowBreaks int64
}

// Format writes a fresh filesystem onto dev and returns it mounted.
func Format(ctx *sim.Proc, dev BlockDev, p Params) (*FS, error) {
	bs := dev.BlockSize()
	if bs < 512 {
		return nil, fmt.Errorf("extfs: block size %d too small", bs)
	}
	if p.InodeCount <= 1 {
		p.InodeCount = 1024
	}
	if p.JournalBlocks < 8 && p.Mode != JournalNone {
		p.JournalBlocks = 64
	}
	nb := uint64(dev.NumBlocks())
	var sb superblock
	sb.blockSize = uint32(bs)
	sb.numBlocks = nb
	sb.inodeCount = uint32(p.InodeCount)
	sb.mode = p.Mode

	bitmapBytes := (nb + 7) / 8
	sb.bitmapStart = 1
	sb.bitmapBlocks = (bitmapBytes + uint64(bs) - 1) / uint64(bs)
	sb.inodeTableStart = sb.bitmapStart + sb.bitmapBlocks
	sb.inodeTableBlocks = (uint64(p.InodeCount)*InodeSize + uint64(bs) - 1) / uint64(bs)
	sb.journalStart = sb.inodeTableStart + sb.inodeTableBlocks
	sb.journalBlocks = uint64(p.JournalBlocks)
	if p.Mode == JournalNone {
		sb.journalBlocks = 0
	}
	sb.dataStart = sb.journalStart + sb.journalBlocks
	if sb.dataStart >= nb {
		return nil, fmt.Errorf("extfs: device of %d blocks too small for metadata", nb)
	}

	fs := &FS{
		dev:    dev,
		bs:     bs,
		sb:     sb,
		bitmap: make([]byte, bitmapBytes),
		inodes: make([]inode, p.InodeCount+1),
		opCost: p.OpCost,

		scratch: make([]byte, bs),
	}
	// Reserve metadata blocks in the bitmap.
	for b := uint64(0); b < sb.dataStart; b++ {
		fs.bitmapSet(b, true)
	}
	// Root directory: world-writable so per-tenant (per-uid) files can be
	// created directly under it; per-tenant subdirectories tighten modes.
	fs.inodes[RootIno] = inode{used: true, mode: ModeDir | 0o777, links: 2, uid: 0}

	// Write everything out, unjournaled (mkfs).
	img := make([]byte, bs)
	sb.encode(img)
	if err := fs.devWrite(ctx, 0, img); err != nil {
		return nil, err
	}
	if err := fs.writeTable(ctx, sb.bitmapStart, sb.bitmapBlocks, fs.renderBitmapBlock); err != nil {
		return nil, err
	}
	fs.dirtyBitmapBlks = nil
	if err := fs.writeTable(ctx, sb.inodeTableStart, sb.inodeTableBlocks, fs.renderInodeBlock); err != nil {
		return nil, err
	}
	// Zero the journal region so stale magic can never replay.
	clear(img)
	for b := uint64(0); b < sb.journalBlocks; b++ {
		if err := fs.devWrite(ctx, int64(sb.journalStart+b), img); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// Mount reads an existing filesystem from dev, replaying the journal if it
// holds committed-but-unapplied transactions. opCost is the per-operation
// CPU cost to charge.
func Mount(ctx *sim.Proc, dev BlockDev, opCost sim.Time) (*FS, error) {
	bs := dev.BlockSize()
	img := make([]byte, bs)
	if err := dev.ReadBlocks(ctx, 0, img); err != nil {
		return nil, err
	}
	var sb superblock
	if err := sb.decode(img, bs, uint64(dev.NumBlocks())); err != nil {
		return nil, err
	}
	fs := &FS{
		dev:    dev,
		bs:     bs,
		sb:     sb,
		opCost: opCost,

		scratch: make([]byte, bs),
	}
	if err := fs.replayJournal(ctx); err != nil {
		return nil, err
	}
	// Replay may have rewritten the superblock (publishing the refcount
	// table is a journaled block-0 update): re-read it.
	if err := dev.ReadBlocks(ctx, 0, img); err != nil {
		return nil, err
	}
	if err := fs.sb.decode(img, bs, uint64(dev.NumBlocks())); err != nil {
		return nil, err
	}
	sb = fs.sb
	// Load the bitmap.
	fs.bitmap = make([]byte, (sb.numBlocks+7)/8)
	for b := uint64(0); b < sb.bitmapBlocks; b++ {
		if err := dev.ReadBlocks(ctx, int64(sb.bitmapStart+b), img); err != nil {
			return nil, err
		}
		copy(fs.bitmap[b*uint64(bs):], img)
	}
	// Load the inode table.
	fs.inodes = make([]inode, sb.inodeCount+1)
	if err := fs.loadInodeTable(ctx); err != nil {
		return nil, err
	}
	// Load the refcount table when a snapshot has ever been taken.
	if sb.refcntStart != 0 {
		if err := fs.loadRefcntTable(ctx); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// BlockSize reports the filesystem block size.
func (fs *FS) BlockSize() int { return fs.bs }

// devWrite is the bottom write path (bypasses the journal).
func (fs *FS) devWrite(ctx *sim.Proc, lba int64, img []byte) error {
	return fs.dev.WriteBlocks(ctx, lba, img)
}

// begin enters a public operation: liveness check, lock, op cost, and the owed
// checkpoint a failed one left, without which the operation fails.
func (fs *FS) begin(ctx *sim.Proc) error {
	if fs.dead {
		return ErrDead
	}
	if ctx != nil {
		if fs.lock == nil {
			fs.lock = sim.NewSemaphore(ctx.Engine(), 1)
		}
		fs.lock.Acquire(ctx)
		if fs.opCost > 0 {
			ctx.Sleep(fs.opCost)
		}
	}
	if err := fs.checkpoint(ctx); err != nil {
		fs.end(ctx)
		return err
	}
	fs.Ops++
	return nil
}

func (fs *FS) end(ctx *sim.Proc) {
	if ctx != nil && fs.lock != nil {
		fs.lock.Release()
	}
}

// transact runs one public mutating operation: begin, then body inside one
// journal transaction. When body succeeds, the allocation-bitmap and
// refcount-table blocks it dirtied join the transaction and it commits, and the
// operation returns: its checkpoint runs in a process that holds the lock, or
// inline, reporting its failure, for a timeless call or a record carrying file
// data (VFs read data homes without the lock). An error from any step leaves no
// open transaction behind, so whatever body had buffered is never written.
func (fs *FS) transact(ctx *sim.Proc, body func() error) error {
	if err := fs.begin(ctx); err != nil {
		return err
	}
	fs.txBegin()
	err := body()
	if err == nil {
		err = fs.flushDirtyTables(ctx)
	}
	if err == nil {
		err = fs.txCommit(ctx)
	}
	if err != nil {
		if fs.tx != nil { // not an earlier batch's owed checkpoint
			fs.txEnd()
		}
		fs.end(ctx)
		return err
	}
	if ctx != nil && fs.owed && !fs.txBuf.data {
		ctx.Engine().Go("extfs checkpoint", fs.checkpointLocked)
		return nil
	}
	defer fs.end(ctx)
	return fs.checkpoint(ctx)
}

// pathParts splits and validates a path.
func pathParts(path string) ([]string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("extfs: invalid path component %q", p)
		}
		if len(p) > MaxNameLen {
			return nil, ErrNameTooLng
		}
	}
	return parts, nil
}
