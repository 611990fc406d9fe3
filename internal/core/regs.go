package core

import (
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// BARSize reports the device BAR size: PF page + VF pages + the management
// region. The management region holds one MgmtStride-byte control block per
// VF, so it spans ceil(NumVFs/64) pages — exactly one page at the prototype's
// 64-VF configuration (the historical layout), growing with the configured
// count beyond that.
func (c *Controller) BARSize() int64 {
	return int64(c.P.NumVFs+1)*ring.PageSize + c.mgmtPages()*ring.PageSize
}

// mgmtPages reports how many BAR pages the management region spans.
func (c *Controller) mgmtPages() int64 {
	pages := (int64(c.P.NumVFs)*ring.MgmtStride + ring.PageSize - 1) / ring.PageSize
	if pages < 1 {
		pages = 1
	}
	return pages
}

// FunctionPageOffset reports the BAR offset of function idx's I/O page
// (0 = PF).
func (c *Controller) FunctionPageOffset(idx int) int64 { return int64(idx) * ring.PageSize }

// MgmtPageOffset reports the BAR offset of the management region.
func (c *Controller) MgmtPageOffset() int64 { return int64(c.P.NumVFs+1) * ring.PageSize }

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
	if reg < ring.QueueRegBase || reg >= ring.QueueRegBase+ring.MaxQueuesPerFn*ring.QueueRegStride {
		return 0, 0, false
	}
	return int((reg - ring.QueueRegBase) / ring.QueueRegStride), (reg - ring.QueueRegBase) % ring.QueueRegStride, true
}

// MMIORead implements pcie.Device.
func (c *Controller) MMIORead(off int64, size int) uint64 {
	page := int(off / ring.PageSize)
	reg := off % ring.PageSize
	if mo := c.MgmtPageOffset(); off >= mo {
		return c.mgmtRead(off - mo)
	}
	f := c.funcByPage(page)
	if f == nil {
		return 0
	}
	if page == 0 {
		if reg >= ring.PFRegMissPendingBank && reg < ring.PFRegMissPendingBank+ring.PFRegMissPendingBanks*8 {
			return c.missPendingBank(int((reg - ring.PFRegMissPendingBank) / 8))
		}
		switch reg {
		case ring.PFRegNumVFs:
			return uint64(c.P.NumVFs)
		case ring.PFRegFlightRecords:
			return uint64(c.tel.flight.Total)
		case ring.PFRegQueueLeases:
			return uint64(c.QueueLeases)
		case ring.PFRegQueueReturns:
			return uint64(c.QueueReturns)
		case ring.PFRegQueueLeaseFails:
			return uint64(c.QueueLeaseFails)
		case ring.PFRegQueuesInUse:
			return uint64(c.LeasedQueues())
		case ring.PFRegShadowBatches:
			return uint64(c.ShadowBatches)
		case ring.PFRegMaterializedVFs:
			return uint64(c.nMat)
		}
	}
	if q, qreg, ok := queueReg(reg); ok {
		return f.queueRead(q, qreg)
	}
	switch reg {
	case ring.RegDeviceSize:
		return f.sizeBlocks
	case ring.RegReset:
		if f.inflight > 0 {
			return 1
		}
		return 0
	case ring.RegErrDMAFaults:
		return uint64(f.DMAFaults)
	case ring.RegErrMedium:
		return uint64(f.MediumErrors)
	case ring.RegErrRetries:
		return uint64(f.MediumRetries)
	case ring.RegErrResets:
		return uint64(f.Resets)
	case ring.RegNumQueues:
		return uint64(f.numQueues)
	case ring.RegErrBadRing:
		return uint64(f.BadRingSizes)
	case ring.RegErrBadDoorbell:
		return uint64(f.BadDoorbells)
	case ring.RegErrIntegrity:
		return uint64(f.IntegrityErrors)
	case ring.RegIntegrityFixes:
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
	case ring.QRegRingBase:
		return uint64(fq.ringBase)
	case ring.QRegRingSize:
		return uint64(fq.ringSize)
	case ring.QRegCplBase:
		return uint64(fq.cplBase)
	case ring.QRegCplSeq:
		return uint64(fq.cplSeq)
	case ring.QRegDeadline:
		return uint64(fq.deadline)
	}
	return 0
}

// MMIOWrite implements pcie.Device. Writes to offsets outside a page's
// writable registers are silently ignored — in particular, a guest writing
// management offsets through its own VF page has no effect.
func (c *Controller) MMIOWrite(off int64, size int, val uint64) {
	page := int(off / ring.PageSize)
	reg := off % ring.PageSize
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
		case ring.PFRegBTLBFlush:
			c.btlb.flush()
			return
		case ring.PFRegInvVLBA:
			c.invVLBA = val
			return
		case ring.PFRegInvCount:
			c.invCount = val
			return
		case ring.PFRegInvFn:
			c.BTLBInvalidations += int64(c.btlb.invalidateRange(int(val), c.invVLBA, c.invCount))
			return
		}
	}
	if q, qreg, ok := queueReg(reg); ok {
		f.queueWrite(q, qreg, val)
		return
	}
	if reg == ring.RegReset && val == 1 {
		c.resetFunction(f)
	}
}

// queueWrite services a write to queue q's register block, validating ring
// sizes and doorbell coherence (the AER-style counters make rejections
// observable instead of silent).
func (f *Function) queueWrite(q int, qreg int64, val uint64) {
	if q >= f.numQueues {
		if qreg == ring.QRegDoorbell {
			f.BadDoorbells++
		}
		return
	}
	fq := f.queues[q]
	if fq == nil {
		switch qreg {
		case ring.QRegRingBase, ring.QRegRingSize, ring.QRegCplBase, ring.QRegShadow, ring.QRegDeadline:
			// First programming of this slot: lease queue-pair state from
			// the device-wide pool. An exhausted pool ignores the write (the
			// slot keeps reading zero, which the driver can observe).
			if fq = f.c.leaseQueue(f, q); fq == nil {
				return
			}
		case ring.QRegDoorbell:
			// A doorbell cannot conjure a queue: no ring is programmed.
			f.BadDoorbells++
			return
		default:
			return
		}
	}
	switch qreg {
	case ring.QRegRingBase:
		fq.ringBase = int64(val)
	case ring.QRegRingSize:
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
	case ring.QRegCplBase:
		fq.cplBase = int64(val)
	case ring.QRegDoorbell:
		if fq.ringSize == 0 || !ring.DoorbellValid(uint32(val), fq.consumed, fq.ringSize) {
			// Unprogrammed ring, or a producer index claiming more new
			// descriptors than the ring holds: honoring it would silently
			// wrap live descriptors.
			f.BadDoorbells++
			return
		}
		fq.doorbells.TryPush(uint32(val))
		f.fetchW.Release()
	case ring.QRegShadow:
		fq.shadowBase = int64(val)
	case ring.QRegDeadline:
		// Relative per-request deadline budget: every request fetched from
		// this queue is stamped fetch-time + budget, and admission control
		// fast-fails it with StatusBusy once the stamp cannot be met. 0
		// disarms (the reset state), keeping deadline-free schedules intact.
		fq.deadline = sim.Time(val)
	}
}

func (c *Controller) mgmtVF(reg int64) (*Function, int64) {
	idx := int(reg / ring.MgmtStride)
	if idx < 0 || idx >= c.P.NumVFs {
		return nil, 0
	}
	// Management access is a first-class materialization point: the
	// hypervisor provisioning a VF touches its control block before any
	// guest sees the function page.
	return c.VF(idx), reg % ring.MgmtStride
}

func (c *Controller) mgmtRead(reg int64) uint64 {
	f, r := c.mgmtVF(reg)
	if f == nil {
		return 0
	}
	switch r {
	case ring.MgmtTreeRoot:
		return uint64(f.treeRoot)
	case ring.MgmtMissAddr:
		return f.missAddr
	case ring.MgmtMissSize:
		// High word carries the reason code so the miss handler learns the
		// size and the reason in one read (keeping the fault-free MMIO
		// schedule identical to the pre-CoW device).
		return uint64(f.missSize) | uint64(f.missReason)<<32
	case ring.MgmtEnable:
		if f.enabled {
			return 1
		}
		return 0
	case ring.MgmtDeviceSize:
		return f.sizeBlocks
	case ring.MgmtMissIsWrite:
		if f.missIsWrite {
			return 1
		}
		return 0
	case ring.MgmtMissReason:
		return uint64(f.missReason)
	case ring.MgmtWeight:
		return uint64(f.weight)
	case ring.MgmtQueues:
		return uint64(f.numQueues)
	case ring.MgmtFetch:
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
	case ring.MgmtTreeRoot:
		f.treeRoot = int64(val)
	case ring.MgmtRewalk:
		f.rewalkVerdict = uint32(val)
		f.missPending = false
		f.rewalk.Fire()
	case ring.MgmtEnable:
		was := f.enabled
		f.enabled = val == 1
		if was && !f.enabled {
			// Disabling a VF drops its cached translations, ends its
			// in-flight work as an FLR does (a walk still out must not
			// re-cache the old tenant's extent for the next one) and returns
			// every leased queue pair to the device-wide pool. Return happens
			// only here — never on FLR — so a queue can be re-leased only
			// after its tenant is deprovisioned.
			c.btlb.flushFn(f.idx)
			c.endInflight(f)
			for qi := range f.queues {
				c.returnQueue(f, qi)
			}
		}
	case ring.MgmtDeviceSize:
		f.sizeBlocks = val
	case ring.MgmtWeight:
		if val >= 1 && val <= 255 {
			f.weight = uint32(val)
		}
	case ring.MgmtQueues:
		// The hypervisor programs the VF's active queue-pair count at
		// creation, bounded by the device capability.
		if val >= 1 && val <= uint64(len(f.queues)) {
			f.numQueues = int(val)
		}
	case ring.MgmtFetch:
		// Fetch-backed VFs (forked golden images) turn every hole — read or
		// write — into a miss so the hypervisor can materialize the block's
		// content from the cas tier. The register is written only when the
		// tier is in use, keeping pre-cas MMIO schedules identical.
		f.fetchBacked = val == 1
	}
}
