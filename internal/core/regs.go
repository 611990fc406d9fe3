package core

import (
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// BAR layout. Following the paper's prototype (§VI), the device's BAR is
// divided into 4 KB pages: page 0 exports the PF's I/O registers, page i
// exports VF i's, and a final management page holds the hypervisor-only
// per-VF control blocks (extent tree root, miss latch, rewalk doorbell).
// The hypervisor maps page 0 and the management page into its own address
// space and maps exactly one VF page into each guest, which is what makes a
// guest unable to touch another function's state.
//
// Each function owns up to MaxQueuesPerFn queue pairs. Queue q's registers
// live in a fixed-stride block at QueueRegBase + q*QueueRegStride; a
// single-queue driver programs queue 0's block.
const (
	// PageSize is the BAR page granularity.
	PageSize = 4096

	// Per-function registers (offsets within a function page).
	RegDeviceSize = 0x20 // RO: virtual device size in blocks (8B)
	RegReset      = 0x30 // write 1: function-level reset; reads 1 while draining (4B)

	// AER-style per-function error counters (RO).
	RegErrDMAFaults   = 0x38 // chunks failed by data-buffer DMA faults (8B)
	RegErrMedium      = 0x40 // chunks that exhausted medium retries (8B)
	RegErrRetries     = 0x48 // medium retry attempts (8B)
	RegErrResets      = 0x50 // function-level resets performed (8B)
	RegNumQueues      = 0x58 // RO: active queue-pair count (4B)
	RegErrBadRing     = 0x60 // RO: rejected ring-size writes (8B)
	RegErrBadDoorbell = 0x68 // RO: ignored incoherent doorbell writes (8B)
	RegErrIntegrity   = 0x70 // RO: requests latched StatusIntegrityError (8B)
	RegIntegrityFixes = 0x78 // RO: integrity failures healed by retry/scrub (8B)

	// Per-queue register blocks. Queue q's block sits at
	// QueueRegBase + q*QueueRegStride; offsets within a block below.
	QueueRegBase   = 0x100
	QueueRegStride = 0x40
	QRegRingBase   = 0x00 // request ring base address (8B)
	QRegRingSize   = 0x08 // ring entry count (4B)
	QRegCplBase    = 0x10 // completion ring base address (8B)
	QRegDoorbell   = 0x18 // write: new producer index (4B)
	QRegCplSeq     = 0x20 // RO: completion sequence counter (4B)
	QRegShadow     = 0x28 // shadow-doorbell block host address, 0 disarms (8B)
	QRegDeadline   = 0x30 // per-request deadline budget in ns, 0 disarms (8B)

	// MaxQueuesPerFn bounds the queue pairs a function can expose (the block
	// array must stay clear of the PF global registers at 0x800).
	MaxQueuesPerFn = 16

	// PF-page global registers.
	PFRegBTLBFlush     = 0x800 // write: flush the BTLB (4B)
	PFRegNumVFs        = 0x810 // RO: supported VF count (4B)
	PFRegFlightRecords = 0x818 // RO: flight-recorder captures to date (8B)

	// Targeted BTLB invalidation command (hypervisor-only, used after a CoW
	// break): latch a vLBA range, then write the function index to fire the
	// invalidation. Count 0 invalidates all of the function's entries.
	PFRegInvVLBA  = 0x820 // latch: first vLBA of the range (8B)
	PFRegInvCount = 0x828 // latch: block count, 0 = whole function (8B)
	PFRegInvFn    = 0x830 // write: function index; fires the invalidation (4B)

	// Queue-pair pool and tenancy observability (RO).
	PFRegQueueLeases     = 0x838 // queue pairs leased to functions (8B)
	PFRegQueueReturns    = 0x840 // queue pairs returned to the pool (8B)
	PFRegQueueLeaseFails = 0x848 // programmings rejected by an exhausted pool (8B)
	PFRegQueuesInUse     = 0x850 // queue pairs currently leased out (8B)
	PFRegShadowBatches   = 0x858 // fetch batches initiated via shadow doorbells (8B)
	PFRegMaterializedVFs = 0x860 // VFs with device state built (8B)

	// Miss-pending bitmaps (RO, 8B each): bank k (at PFRegMissPendingBank +
	// 8k) has a bit per VF 64k .. 64k+63 with a latched miss.
	PFRegMissPendingBank  = 0x880
	PFRegMissPendingBanks = 16 // register file holds up to 16 banks (1024 VFs)

	// Management page: one 64-byte block per VF, indexed by VF number - 1.
	MgmtStride      = 64
	MgmtTreeRoot    = 0x00 // extent tree root address (8B)
	MgmtMissAddr    = 0x08 // RO: missing vLBA (8B)
	MgmtMissSize    = 0x10 // RO: missing block count; reason code in the high word (8B)
	MgmtRewalk      = 0x14 // write RewalkRetry/RewalkFail (4B)
	MgmtEnable      = 0x18 // 1 = VF enabled (4B)
	MgmtDeviceSize  = 0x20 // virtual device size in blocks (8B)
	MgmtMissIsWrite = 0x28 // RO: 1 when the latched miss is a write (4B)
	MgmtWeight      = 0x2C // QoS weight for the VF multiplexer, 1..255 (4B)
	MgmtQueues      = 0x30 // active queue-pair count, 1..QueuesPerVF (4B)
	MgmtMissReason  = 0x34 // RO: reason code of the latched miss (4B)
	MgmtFetch       = 0x38 // 1 = fetch-backed VF: holes miss for materialization (4B)

	// Miss reason codes (MgmtMissReason).
	MissReasonTranslate = 0 // no mapping: hole or pruned subtree
	MissReasonCoW       = 1 // write hit a write-protected (CoW shared) extent
	MissReasonFetch     = 2 // hole on a fetch-backed VF: content must materialize

	// RewalkTree verdicts.
	RewalkRetry = 1
	RewalkFail  = 2

	// Wire sizes (the protocol definition lives in internal/ring).
	DescBytes = ring.DescBytes
	CplBytes  = ring.CplBytes
)

// BARSize reports the device BAR size: PF page + VF pages + the management
// region. The management region holds one MgmtStride-byte control block per
// VF, so it spans ceil(NumVFs/64) pages — exactly one page at the prototype's
// 64-VF configuration (the historical layout), growing with the configured
// count beyond that.
func (c *Controller) BARSize() int64 {
	return int64(c.P.NumVFs+1)*PageSize + c.mgmtPages()*PageSize
}

// mgmtPages reports how many BAR pages the management region spans.
func (c *Controller) mgmtPages() int64 {
	pages := (int64(c.P.NumVFs)*MgmtStride + PageSize - 1) / PageSize
	if pages < 1 {
		pages = 1
	}
	return pages
}

// FunctionPageOffset reports the BAR offset of function idx's I/O page
// (0 = PF).
func (c *Controller) FunctionPageOffset(idx int) int64 { return int64(idx) * PageSize }

// MgmtPageOffset reports the BAR offset of the management region.
func (c *Controller) MgmtPageOffset() int64 { return int64(c.P.NumVFs+1) * PageSize }

// PCIeName implements pcie.Device.
func (c *Controller) PCIeName() string { return "nesc" }

// funcByPage resolves a BAR page to its function, materializing a VF on its
// first MMIO touch: a fresh function page is not all-zero (RegNumQueues and
// MgmtWeight have nonzero reset values), so even a read must conjure the
// register file.
func (c *Controller) funcByPage(page int) *Function {
	if page == 0 {
		return c.pf
	}
	if page >= 1 && page <= c.P.NumVFs {
		return c.VF(page - 1)
	}
	return nil
}

// queueReg decomposes a function-page offset into (queue, in-block offset)
// when it falls inside the per-queue block array.
func queueReg(reg int64) (q int, qreg int64, ok bool) {
	if reg < QueueRegBase || reg >= QueueRegBase+MaxQueuesPerFn*QueueRegStride {
		return 0, 0, false
	}
	return int((reg - QueueRegBase) / QueueRegStride), (reg - QueueRegBase) % QueueRegStride, true
}

// MMIORead implements pcie.Device.
func (c *Controller) MMIORead(off int64, size int) uint64 {
	page := int(off / PageSize)
	reg := off % PageSize
	if mo := c.MgmtPageOffset(); off >= mo {
		return c.mgmtRead(off - mo)
	}
	f := c.funcByPage(page)
	if f == nil {
		return 0
	}
	if page == 0 {
		if reg >= PFRegMissPendingBank && reg < PFRegMissPendingBank+PFRegMissPendingBanks*8 {
			return c.missPendingBank(int((reg - PFRegMissPendingBank) / 8))
		}
		switch reg {
		case PFRegNumVFs:
			return uint64(c.P.NumVFs)
		case PFRegFlightRecords:
			return uint64(c.tel.flight.Total)
		case PFRegQueueLeases:
			return uint64(c.QueueLeases)
		case PFRegQueueReturns:
			return uint64(c.QueueReturns)
		case PFRegQueueLeaseFails:
			return uint64(c.QueueLeaseFails)
		case PFRegQueuesInUse:
			return uint64(c.LeasedQueues())
		case PFRegShadowBatches:
			return uint64(c.ShadowBatches)
		case PFRegMaterializedVFs:
			return uint64(c.nMat)
		}
	}
	if q, qreg, ok := queueReg(reg); ok {
		return f.queueRead(q, qreg)
	}
	switch reg {
	case RegDeviceSize:
		return f.sizeBlocks
	case RegReset:
		if f.inflight > 0 {
			return 1
		}
		return 0
	case RegErrDMAFaults:
		return uint64(f.DMAFaults)
	case RegErrMedium:
		return uint64(f.MediumErrors)
	case RegErrRetries:
		return uint64(f.MediumRetries)
	case RegErrResets:
		return uint64(f.Resets)
	case RegNumQueues:
		return uint64(f.numQueues)
	case RegErrBadRing:
		return uint64(f.BadRingSizes)
	case RegErrBadDoorbell:
		return uint64(f.BadDoorbells)
	case RegErrIntegrity:
		return uint64(f.IntegrityErrors)
	case RegIntegrityFixes:
		return uint64(f.IntegrityRepairs)
	}
	return 0
}

// missPendingBank reads one 64-VF miss-pending bitmap bank without
// materializing anything: a VF with no device state cannot have a latched
// miss. The shard granularity equals the bank width, so a bank is one shard
// scan.
func (c *Controller) missPendingBank(k int) uint64 {
	if k < 0 || k >= len(c.vfShards) {
		return 0
	}
	sh := c.vfShards[k]
	if sh == nil {
		return 0
	}
	var bits uint64
	for i, f := range sh {
		if f != nil && f.missPending {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// queueRead services a read of queue q's register block. A slot with no
// queue pair leased reads as zero, exactly like a cleared queue.
func (f *Function) queueRead(q int, qreg int64) uint64 {
	if q >= f.numQueues || f.queues[q] == nil {
		return 0
	}
	fq := f.queues[q]
	switch qreg {
	case QRegRingBase:
		return uint64(fq.ringBase)
	case QRegRingSize:
		return uint64(fq.ringSize)
	case QRegCplBase:
		return uint64(fq.cplBase)
	case QRegCplSeq:
		return uint64(fq.cplSeq)
	case QRegDeadline:
		return uint64(fq.deadline)
	}
	return 0
}

// MMIOWrite implements pcie.Device. Writes to offsets outside a page's
// writable registers are silently ignored — in particular, a guest writing
// management offsets through its own VF page has no effect.
func (c *Controller) MMIOWrite(off int64, size int, val uint64) {
	page := int(off / PageSize)
	reg := off % PageSize
	if mo := c.MgmtPageOffset(); off >= mo {
		c.mgmtWrite(off-mo, val)
		return
	}
	f := c.funcByPage(page)
	if f == nil {
		return
	}
	if page == 0 {
		switch reg {
		case PFRegBTLBFlush:
			c.btlb.flush()
			return
		case PFRegInvVLBA:
			c.invVLBA = val
			return
		case PFRegInvCount:
			c.invCount = val
			return
		case PFRegInvFn:
			c.BTLBInvalidations += int64(c.btlb.invalidateRange(int(val), c.invVLBA, c.invCount))
			return
		}
	}
	if q, qreg, ok := queueReg(reg); ok {
		f.queueWrite(q, qreg, val)
		return
	}
	if reg == RegReset && val == 1 {
		c.resetFunction(f)
	}
}

// queueWrite services a write to queue q's register block, validating ring
// sizes and doorbell coherence (the AER-style counters make rejections
// observable instead of silent).
func (f *Function) queueWrite(q int, qreg int64, val uint64) {
	if q >= f.numQueues {
		if qreg == QRegDoorbell {
			f.BadDoorbells++
		}
		return
	}
	fq := f.queues[q]
	if fq == nil {
		switch qreg {
		case QRegRingBase, QRegRingSize, QRegCplBase, QRegShadow, QRegDeadline:
			// First programming of this slot: lease queue-pair state from
			// the device-wide pool. An exhausted pool ignores the write (the
			// slot keeps reading zero, which the driver can observe).
			if fq = f.c.leaseQueue(f, q); fq == nil {
				return
			}
		case QRegDoorbell:
			// A doorbell cannot conjure a queue: no ring is programmed.
			f.BadDoorbells++
			return
		default:
			return
		}
	}
	switch qreg {
	case QRegRingBase:
		fq.ringBase = int64(val)
	case QRegRingSize:
		if !ring.ValidSize(val) {
			// Zero or non-power-of-two sizes would corrupt the free-running
			// index arithmetic; reject and count.
			f.BadRingSizes++
			return
		}
		fq.ringSize = uint32(val)
		// (Re)programming the ring resets the queue cursors, so a new
		// owner of the function starts from a clean producer/consumer
		// state.
		fq.consumed = 0
		fq.cplSeq = 0
	case QRegCplBase:
		fq.cplBase = int64(val)
	case QRegDoorbell:
		if fq.ringSize == 0 || !ring.DoorbellValid(uint32(val), fq.consumed, fq.ringSize) {
			// Unprogrammed ring, or a producer index claiming more new
			// descriptors than the ring holds: honoring it would silently
			// wrap live descriptors.
			f.BadDoorbells++
			return
		}
		fq.doorbells.TryPush(uint32(val))
		f.fetchW.Release()
	case QRegShadow:
		fq.shadowBase = int64(val)
	case QRegDeadline:
		// Relative per-request deadline budget: every request fetched from
		// this queue is stamped fetch-time + budget, and admission control
		// fast-fails it with StatusBusy once the stamp cannot be met. 0
		// disarms (the reset state), keeping deadline-free schedules intact.
		fq.deadline = sim.Time(val)
	}
}

func (c *Controller) mgmtVF(reg int64) (*Function, int64) {
	idx := int(reg / MgmtStride)
	if idx < 0 || idx >= c.P.NumVFs {
		return nil, 0
	}
	// Management access is a first-class materialization point: the
	// hypervisor provisioning a VF touches its control block before any
	// guest sees the function page.
	return c.VF(idx), reg % MgmtStride
}

func (c *Controller) mgmtRead(reg int64) uint64 {
	f, r := c.mgmtVF(reg)
	if f == nil {
		return 0
	}
	switch r {
	case MgmtTreeRoot:
		return uint64(f.treeRoot)
	case MgmtMissAddr:
		return f.missAddr
	case MgmtMissSize:
		// High word carries the reason code so the miss handler learns the
		// size and the reason in one read (keeping the fault-free MMIO
		// schedule identical to the pre-CoW device).
		return uint64(f.missSize) | uint64(f.missReason)<<32
	case MgmtEnable:
		if f.enabled {
			return 1
		}
		return 0
	case MgmtDeviceSize:
		return f.sizeBlocks
	case MgmtMissIsWrite:
		if f.missIsWrite {
			return 1
		}
		return 0
	case MgmtMissReason:
		return uint64(f.missReason)
	case MgmtWeight:
		return uint64(f.weight)
	case MgmtQueues:
		return uint64(f.numQueues)
	case MgmtFetch:
		if f.fetchBacked {
			return 1
		}
		return 0
	}
	return 0
}

func (c *Controller) mgmtWrite(reg int64, val uint64) {
	f, r := c.mgmtVF(reg)
	if f == nil {
		return
	}
	switch r {
	case MgmtTreeRoot:
		f.treeRoot = int64(val)
	case MgmtRewalk:
		f.rewalkVerdict = uint32(val)
		f.missPending = false
		f.rewalk.Fire()
	case MgmtEnable:
		was := f.enabled
		f.enabled = val == 1
		if was && !f.enabled {
			// Disabling a VF drops its cached translations and returns every
			// leased queue pair to the device-wide pool; the hypervisor
			// quiesces the function before disabling it. Return happens only
			// here — never on FLR — so a queue can be re-leased only after
			// its tenant is deprovisioned.
			c.btlb.flushFn(f.idx)
			for qi := range f.queues {
				c.returnQueue(f, qi)
			}
		}
	case MgmtDeviceSize:
		f.sizeBlocks = val
	case MgmtWeight:
		if val >= 1 && val <= 255 {
			f.weight = uint32(val)
		}
	case MgmtQueues:
		// The hypervisor programs the VF's active queue-pair count at
		// creation, bounded by the device capability.
		if val >= 1 && val <= uint64(len(f.queues)) {
			f.numQueues = int(val)
		}
	case MgmtFetch:
		// Fetch-backed VFs (forked golden images) turn every hole — read or
		// write — into a miss so the hypervisor can materialize the block's
		// content from the cas tier. The register is written only when the
		// tier is in use, keeping pre-cas MMIO schedules identical.
		f.fetchBacked = val == 1
	}
}
