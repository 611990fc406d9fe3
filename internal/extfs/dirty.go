package extfs

// DirtyLog is a coarse-grained dirty-region bitmap over a virtual disk's
// block space. The fabric layer uses one per replica to remember which
// regions of a mirrored virtual disk missed writes while the replica was
// unreachable (so the resilver knows what to copy), and one per migration
// to track blocks written after the bulk copy pass. Regions — not single
// blocks — keep the log small and make resilver I/O sequential, the same
// trade DRBD's activity log and md's write-intent bitmap make.
//
// The log is purely bookkeeping: timeless, no simulated cost. The I/O that
// consults it pays its own way.
type DirtyLog struct {
	regionBlocks uint64
	totalBlocks  uint64
	bits         []uint64
	dirty        int // population count of bits
	// Marks counts every Mark call; MarkedBlocks totals the block spans
	// marked (both monotonic, for telemetry).
	Marks        int64
	MarkedBlocks int64
}

// NewDirtyLog covers totalBlocks of disk in regions of regionBlocks blocks
// (minimum 1).
func NewDirtyLog(totalBlocks, regionBlocks uint64) *DirtyLog {
	if regionBlocks == 0 {
		regionBlocks = 1
	}
	n := (totalBlocks + regionBlocks - 1) / regionBlocks
	return &DirtyLog{
		regionBlocks: regionBlocks,
		totalBlocks:  totalBlocks,
		bits:         make([]uint64, (n+63)/64),
	}
}

// Regions reports the total number of regions covering the disk.
func (l *DirtyLog) Regions() int {
	return int((l.totalBlocks + l.regionBlocks - 1) / l.regionBlocks)
}

// DirtyRegions reports how many regions are currently marked.
func (l *DirtyLog) DirtyRegions() int { return l.dirty }

// RegionOf maps a block address to its region index.
func (l *DirtyLog) RegionOf(lba uint64) int { return int(lba / l.regionBlocks) }

// RegionSpan reports region r's block range [lba, lba+count), clipped to
// the disk.
func (l *DirtyLog) RegionSpan(r int) (lba, count uint64) {
	lba = uint64(r) * l.regionBlocks
	count = l.regionBlocks
	if lba+count > l.totalBlocks {
		count = l.totalBlocks - lba
	}
	return lba, count
}

// Mark flags every region overlapping [lba, lba+count) dirty.
func (l *DirtyLog) Mark(lba, count uint64) {
	if count == 0 {
		return
	}
	l.Marks++
	l.MarkedBlocks += int64(count)
	for r := l.RegionOf(lba); r <= l.RegionOf(lba+count-1); r++ {
		w, b := r/64, uint(r%64)
		if l.bits[w]&(1<<b) == 0 {
			l.bits[w] |= 1 << b
			l.dirty++
		}
	}
}

// Clear unmarks region r.
func (l *DirtyLog) Clear(r int) {
	w, b := r/64, uint(r%64)
	if l.bits[w]&(1<<b) != 0 {
		l.bits[w] &^= 1 << b
		l.dirty--
	}
}

// Next returns the first dirty region with index >= from, or -1.
func (l *DirtyLog) Next(from int) int {
	n := l.Regions()
	for r := from; r < n; r++ {
		if l.bits[r/64]&(1<<uint(r%64)) != 0 {
			return r
		}
	}
	return -1
}

// Intersects reports whether [lba, lba+count) touches any dirty region.
func (l *DirtyLog) Intersects(lba, count uint64) bool {
	if count == 0 || l.dirty == 0 {
		return false
	}
	for r := l.RegionOf(lba); r <= l.RegionOf(lba+count-1); r++ {
		if l.bits[r/64]&(1<<uint(r%64)) != 0 {
			return true
		}
	}
	return false
}
