package extfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"nesc/internal/sim"
)

// Write-ahead redo journal. Each public mutating operation is one
// transaction: block images are buffered, then on commit written to the
// journal region (descriptor block, image blocks, commit block with a
// checksum) and finally checkpointed to their home locations. Mount replays
// the newest committed transaction — the only one a crash can leave between
// commit and checkpoint, because each is checkpointed before the next begins
// — which makes every operation atomic across such a crash.
//
// Nothing here allocates per transaction: the transaction buffer, its image
// blocks (a free list), the record block and the callers' render scratch are
// the filesystem's, guarded by the lock transact holds; the device copies what
// it is handed before WriteBlocks returns.

const (
	jDescMagic   = 0x4A444553 // "JDES"
	jCommitMagic = 0x4A434D54 // "JCMT"
)

type txState struct {
	order  []int64
	images map[int64][]byte
	leaves []leafRef // overflow leaves whose images this batch carries
}

// leafRef names one overflow leaf of one inode.
type leafRef struct {
	in  *inode
	blk uint64
}

// leafWritten is told that leaf blk of in went to writeBlock. Its dirty mark
// stays set until the image is home: a direct write (no transaction) is, at
// once; a journaled one is when its batch commits and checkpoints, so a batch
// that fails leaves the mark for the next transaction to write the leaf again.
func (fs *FS) leafWritten(in *inode, blk uint64) {
	if fs.tx == nil {
		clearLeafMark(in, blk)
		return
	}
	fs.tx.leaves = append(fs.tx.leaves, leafRef{in, blk})
}

func clearLeafMark(in *inode, blk uint64) {
	for k := range in.overflow {
		if in.overflow[k].blk == blk {
			in.overflow[k].dirty = false
			return
		}
	}
}

// txBegin opens a transaction buffer. No-op when journaling is off.
func (fs *FS) txBegin() {
	if fs.sb.mode == JournalNone {
		return
	}
	if fs.txBuf.images == nil {
		fs.txBuf.images = make(map[int64][]byte)
	}
	fs.tx = &fs.txBuf
}

// txEnd closes the open transaction, committed or abandoned, and returns its
// image blocks to the free list.
func (fs *FS) txEnd() {
	if fs.tx == nil {
		return
	}
	for _, lba := range fs.tx.order {
		fs.freeImages = append(fs.freeImages, fs.tx.images[lba])
	}
	clear(fs.tx.images)
	fs.tx.order = fs.tx.order[:0]
	fs.tx.leaves = fs.tx.leaves[:0]
	fs.tx = nil
}

// writeBlock routes one block image either into the open transaction (when
// the journal covers this class of block) or directly to disk. When a
// transaction outgrows the journal descriptor's capacity (full-data mode
// with large writes), the accumulated batch is committed and a fresh
// transaction continues — multi-transaction operations, as in ext4.
func (fs *FS) writeBlock(ctx *sim.Proc, lba int64, img []byte, meta bool) error {
	journal := fs.tx != nil && (meta || fs.sb.mode == JournalFull)
	if !journal {
		if meta {
			fs.MetaBlockWrites++
		} else {
			fs.DataBlockWrites++
		}
		return fs.devWrite(ctx, lba, img)
	}
	batch := fs.txEntriesPerDesc() - 8
	if jb := int(fs.sb.journalBlocks) - 2; jb < batch {
		batch = jb
	}
	if batch < 1 {
		batch = 1
	}
	if len(fs.tx.order) >= batch {
		if err := fs.txCommit(ctx); err != nil {
			return err
		}
		fs.txBegin()
	}
	buf, ok := fs.tx.images[lba]
	if !ok {
		if n := len(fs.freeImages); n > 0 {
			buf, fs.freeImages = fs.freeImages[n-1], fs.freeImages[:n-1]
		} else {
			buf = make([]byte, fs.bs)
		}
		fs.tx.images[lba] = buf
		fs.tx.order = append(fs.tx.order, lba)
	}
	copy(buf, img)
	return nil
}

// txEntriesPerDesc reports how many block numbers fit in one descriptor
// block: header is magic(4) seq(8) count(4) = 16 bytes, then 8 bytes per
// block number.
func (fs *FS) txEntriesPerDesc() int { return (fs.bs - 16) / 8 }

// txCommit writes the journal record and checkpoints the buffered blocks.
func (fs *FS) txCommit(ctx *sim.Proc) error {
	tx := fs.tx
	defer fs.txEnd()
	if tx == nil || len(tx.order) == 0 {
		return nil
	}
	if len(tx.order) > fs.txEntriesPerDesc() {
		return fmt.Errorf("extfs: transaction of %d blocks exceeds journal descriptor capacity %d", len(tx.order), fs.txEntriesPerDesc())
	}
	need := uint64(len(tx.order) + 2) // descriptor + images + commit
	if need > fs.sb.journalBlocks {
		return fmt.Errorf("extfs: transaction of %d blocks exceeds journal of %d blocks", len(tx.order), fs.sb.journalBlocks)
	}
	if fs.journalHead+need > fs.sb.journalBlocks {
		fs.journalHead = 0 // wrap; old records become garbage
	}
	fs.journalSeq++
	head := fs.sb.journalStart + fs.journalHead

	// Descriptor.
	desc := fs.recordBuf
	clear(desc)
	binary.BigEndian.PutUint32(desc[0:], jDescMagic)
	binary.BigEndian.PutUint64(desc[4:], fs.journalSeq)
	binary.BigEndian.PutUint32(desc[12:], uint32(len(tx.order)))
	for i, lba := range tx.order {
		binary.BigEndian.PutUint64(desc[16+8*i:], uint64(lba))
	}
	if err := fs.devWrite(ctx, int64(head), desc); err != nil {
		return err
	}
	fs.JournalBlockWrites++

	// Images, with a rolling checksum sealed into the commit block.
	var sum uint32
	for i, lba := range tx.order {
		img := tx.images[lba]
		sum = crc32.Update(sum, castagnoli, img)
		if err := fs.devWrite(ctx, int64(head)+1+int64(i), img); err != nil {
			return err
		}
		fs.JournalBlockWrites++
	}

	// Commit record.
	commit := desc
	clear(commit)
	binary.BigEndian.PutUint32(commit[0:], jCommitMagic)
	binary.BigEndian.PutUint64(commit[4:], fs.journalSeq)
	binary.BigEndian.PutUint64(commit[12:], uint64(sum))
	if err := fs.devWrite(ctx, int64(head)+1+int64(len(tx.order)), commit); err != nil {
		return err
	}
	fs.JournalBlockWrites++
	fs.journalHead += need

	if fs.failAfterCommit {
		fs.dead = true
		return nil // committed but not checkpointed: recovery's job
	}

	// Checkpoint to home locations.
	for _, lba := range tx.order {
		fs.MetaBlockWrites++
		if err := fs.devWrite(ctx, lba, tx.images[lba]); err != nil {
			return err
		}
	}
	for _, r := range tx.leaves {
		clearLeafMark(r.in, r.blk)
	}
	return nil
}

// castagnoli is the CRC-32C table the commit checksum rolls over a record's
// images, in journal order. The sum is checked at replay and nowhere else.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// replayJournal scans the journal region at mount and redoes the newest fully
// committed transaction, and only that one: an older record holds nothing that
// is not already home, and the region is a ring that restarts at block 0, so a
// record stranded in the tail of an earlier lap can outlive newer ones that
// touched the same blocks — redoing it writes a stale image over them.
func (fs *FS) replayJournal(ctx *sim.Proc) error {
	if fs.sb.journalBlocks == 0 {
		return nil
	}
	var newest struct {
		seq    uint64
		blocks []int64
		start  uint64 // journal block index of first image
	}
	img, cb := make([]byte, fs.bs), make([]byte, fs.bs)
	for j := uint64(0); j < fs.sb.journalBlocks; j++ {
		if err := fs.dev.ReadBlocks(ctx, int64(fs.sb.journalStart+j), img); err != nil {
			return err
		}
		if binary.BigEndian.Uint32(img[0:]) != jDescMagic {
			continue
		}
		seq := binary.BigEndian.Uint64(img[4:])
		n := binary.BigEndian.Uint32(img[12:])
		if n == 0 || int(n) > fs.txEntriesPerDesc() || j+uint64(n)+1 >= fs.sb.journalBlocks {
			continue
		}
		// Validate the commit record and checksum.
		if err := fs.dev.ReadBlocks(ctx, int64(fs.sb.journalStart+j+uint64(n)+1), cb); err != nil {
			return err
		}
		if binary.BigEndian.Uint32(cb[0:]) != jCommitMagic || binary.BigEndian.Uint64(cb[4:]) != seq {
			continue
		}
		want := binary.BigEndian.Uint64(cb[12:])
		var sum uint32
		for i := uint32(0); i < n; i++ {
			if err := fs.dev.ReadBlocks(ctx, int64(fs.sb.journalStart+j+1+uint64(i)), cb); err != nil {
				return err
			}
			sum = crc32.Update(sum, castagnoli, cb)
		}
		if uint64(sum) != want {
			continue
		}
		if seq > newest.seq {
			newest.seq, newest.start = seq, j+1
			newest.blocks = newest.blocks[:0]
			for i := uint32(0); i < n; i++ {
				newest.blocks = append(newest.blocks, int64(binary.BigEndian.Uint64(img[16+8*i:])))
			}
		}
		j += uint64(n) + 1 // skip past this record
	}
	for i, lba := range newest.blocks {
		if err := fs.dev.ReadBlocks(ctx, int64(fs.sb.journalStart+newest.start+uint64(i)), img); err != nil {
			return err
		}
		if err := fs.devWrite(ctx, lba, img); err != nil {
			return err
		}
	}
	fs.journalSeq = newest.seq
	// Leave journalHead at 0: fresh records overwrite old ones, and carry
	// higher sequence numbers than any stale record they leave behind.
	fs.journalHead = 0
	return nil
}

// flushDirtyTables writes bitmap disk blocks touched since the last flush
// into the current transaction, then does the same for dirty refcount-table
// blocks so every commit point covers both.
func (fs *FS) flushDirtyTables(ctx *sim.Proc) error {
	if err := fs.flushDirtyTable(ctx, fs.dirtyBitmapBlks, fs.sb.bitmapStart, fs.renderBitmapBlock); err != nil {
		return err
	}
	return fs.flushDirtyTable(ctx, fs.dirtyRefcntBlks, fs.sb.refcntStart, fs.renderRefcntBlock)
}

// flushDirtyTable writes the blocks of one metadata table named in dirty
// into the current transaction in ascending order — map iteration order must
// not reach the journal — and then forgets them. The table occupies the
// volume from block start; render fills img with table block b's image.
func (fs *FS) flushDirtyTable(ctx *sim.Proc, dirty map[uint64]struct{}, start uint64, render func(img []byte, b uint64)) error {
	if len(dirty) == 0 {
		return nil
	}
	img := fs.scratch
	blks := make([]uint64, 0, len(dirty))
	for b := range dirty {
		blks = append(blks, b)
	}
	slices.Sort(blks)
	for _, b := range blks {
		render(img, b)
		if err := fs.writeBlock(ctx, int64(start+b), img, true); err != nil {
			return err
		}
	}
	clear(dirty)
	return nil
}

// writeTable writes blocks [0, n) of the metadata table at start straight to
// the device, unjournaled (mkfs path).
func (fs *FS) writeTable(ctx *sim.Proc, start, n uint64, render func(img []byte, b uint64)) error {
	img := make([]byte, fs.bs)
	for b := uint64(0); b < n; b++ {
		render(img, b)
		if err := fs.devWrite(ctx, int64(start+b), img); err != nil {
			return err
		}
	}
	return nil
}

// renderBitmapBlock fills img with the image of allocation-bitmap block b.
func (fs *FS) renderBitmapBlock(img []byte, b uint64) {
	clear(img)
	if off := b * uint64(fs.bs); off < uint64(len(fs.bitmap)) {
		copy(img, fs.bitmap[off:])
	}
}
