package extfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"nesc/internal/sim"
)

// Write-ahead redo journal. Each public mutating operation is one
// transaction: block images are buffered in the filesystem's record buffer,
// then on commit the record — descriptor, images, and a commit block sealing a
// checksum over the images — goes to the journal region as one device write.
// The checkpoint, which writes the images home, runs after the caller returns
// in a process that holds the filesystem lock until they are (inline for a
// record carrying file data, which the device path reads without the lock), so
// no transaction begins while another is committed but not home, and Mount
// need replay only the newest committed record to make every operation atomic
// across a crash. A checkpoint that fails leaves its transaction owed: the
// next operation to take the lock writes it home before it begins, or fails.
//
// Nothing here allocates per transaction: the transaction buffer, the record
// buffer its images live in and the callers' render scratch are the
// filesystem's, guarded by the lock; the device copies what it is handed
// before WriteBlocks returns.

const (
	jDescMagic   = 0x4A444553 // "JDES"
	jCommitMagic = 0x4A434D54 // "JCMT"
)

type txState struct {
	order  []int64       // home block of each image, in record order
	slot   map[int64]int // home block → its index in order
	leaves []leafRef     // overflow leaves whose images this batch carries
	data   bool          // it carries file data (JournalFull)
}

// leafRef names one overflow leaf of one inode.
type leafRef struct {
	in  *inode
	blk uint64
}

// leafWritten is told that leaf blk of in went to writeBlock. Its dirty mark
// stays set until the image is home: a direct write (no transaction) is, at
// once; a journaled one is when its batch's checkpoint completes, so a batch
// that fails to commit leaves the mark for the next transaction to write the
// leaf again.
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
	if fs.txBuf.slot == nil {
		fs.txBuf.slot = make(map[int64]int)
	}
	fs.tx = &fs.txBuf
}

// txEnd empties the transaction buffer: an open transaction is abandoned, an
// owed one is home.
func (fs *FS) txEnd() {
	clear(fs.txBuf.slot)
	fs.txBuf.order = fs.txBuf.order[:0]
	fs.txBuf.leaves = fs.txBuf.leaves[:0]
	fs.txBuf.data = false
	fs.tx, fs.owed = nil, false
}

// image is the record buffer's block for image i: the record is the
// descriptor, the images, then the commit block.
func (fs *FS) image(i int) []byte { return fs.record[(1+i)*fs.bs : (2+i)*fs.bs] }

// writeBlock routes one block image either into the open transaction (when
// the journal covers this class of block) or directly to disk. When a
// transaction outgrows the journal descriptor's capacity (full-data mode
// with large writes), the accumulated batch is committed and checkpointed and
// a fresh transaction continues — multi-transaction operations, as in ext4.
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
		if err := fs.checkpoint(ctx); err != nil {
			return err
		}
		fs.txBegin()
	}
	i, ok := fs.tx.slot[lba]
	if !ok {
		i = len(fs.tx.order)
		fs.tx.slot[lba] = i
		fs.tx.order = append(fs.tx.order, lba)
		if need := (i + 3) * fs.bs; need > len(fs.record) {
			fs.record = append(fs.record, make([]byte, need-len(fs.record))...)
		}
	}
	copy(fs.image(i), img)
	fs.tx.data = fs.tx.data || !meta
	return nil
}

// txEntriesPerDesc reports how many block numbers fit in one descriptor
// block: header is magic(4) seq(8) count(4) = 16 bytes, then 8 bytes per
// block number.
func (fs *FS) txEntriesPerDesc() int { return (fs.bs - 16) / 8 }

// txCommit seals the open transaction's record around its images and writes
// it with one device write. Written, the transaction is closed and owed until
// checkpoint takes it home; one that could not be written stays open for the
// caller to abandon.
func (fs *FS) txCommit(ctx *sim.Proc) error {
	tx := fs.tx
	if tx == nil || len(tx.order) == 0 {
		fs.tx = nil
		return nil
	}
	n := len(tx.order)
	if n > fs.txEntriesPerDesc() {
		return fmt.Errorf("extfs: transaction of %d blocks exceeds journal descriptor capacity %d", n, fs.txEntriesPerDesc())
	}
	need := uint64(n + 2) // descriptor + images + commit
	if need > fs.sb.journalBlocks {
		return fmt.Errorf("extfs: transaction of %d blocks exceeds journal of %d blocks", n, fs.sb.journalBlocks)
	}
	if fs.journalHead+need > fs.sb.journalBlocks {
		fs.journalHead = 0 // wrap; old records become garbage
	}
	rec := fs.record[:int(need)*fs.bs]
	desc, commit := rec[:fs.bs], rec[(n+1)*fs.bs:]
	clear(desc)
	binary.BigEndian.PutUint32(desc[0:], jDescMagic)
	binary.BigEndian.PutUint64(desc[4:], fs.journalSeq+1)
	binary.BigEndian.PutUint32(desc[12:], uint32(n))
	for i, lba := range tx.order {
		binary.BigEndian.PutUint64(desc[16+8*i:], uint64(lba))
	}
	clear(commit)
	binary.BigEndian.PutUint32(commit[0:], jCommitMagic)
	binary.BigEndian.PutUint64(commit[4:], fs.journalSeq+1)
	binary.BigEndian.PutUint64(commit[12:], uint64(crc32.Checksum(rec[fs.bs:(n+1)*fs.bs], castagnoli)))
	if err := fs.devWrite(ctx, int64(fs.sb.journalStart+fs.journalHead), rec); err != nil {
		return err
	}
	fs.JournalBlockWrites += int64(need)
	fs.journalSeq++
	fs.journalHead += need
	fs.tx, fs.owed = nil, true
	if fs.failAfterCommit {
		fs.dead = true // committed but not checkpointed: recovery's job
	}
	return nil
}

// checkpoint writes the owed transaction's images to their home locations,
// clears the marks of the leaves it carried and empties the buffer. One that
// fails stays owed; a crashed filesystem leaves it to recovery.
func (fs *FS) checkpoint(ctx *sim.Proc) error {
	if fs.dead || !fs.owed {
		return nil
	}
	for i, lba := range fs.txBuf.order {
		fs.MetaBlockWrites++
		if err := fs.devWrite(ctx, lba, fs.image(i)); err != nil {
			return err
		}
	}
	for _, r := range fs.txBuf.leaves {
		clearLeafMark(r.in, r.blk)
	}
	fs.txEnd()
	return nil
}

// checkpointLocked is the checkpoint process of a transaction its operation
// committed under the lock and returned from: it takes the transaction home
// and only then lets the next operation in.
func (fs *FS) checkpointLocked(p *sim.Proc) {
	_ = fs.checkpoint(p) // one that fails is owed to the next operation
	fs.end(p)
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
