package ring

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
)

// MSI vectors raised by the controller. Queue 0's completions keep the
// legacy vector 0; queue q > 0 completes on vector 1+q, skipping the miss
// vector. A function therefore needs 1+numQueues vectors (at least 2).
const (
	VecCompletion = 0 // queue 0 completion (raised from the owning function)
	VecMiss       = 1 // translation miss (always raised from the PF)
)

// CompletionVector reports the MSI vector carrying queue q's completions.
func CompletionVector(q int) uint8 {
	if q == 0 {
		return VecCompletion
	}
	return uint8(1 + q)
}

// QueueOfVector inverts CompletionVector; ok is false for VecMiss (not a
// completion vector).
func QueueOfVector(v uint8) (q int, ok bool) {
	switch {
	case v == VecCompletion:
		return 0, true
	case v == VecMiss:
		return 0, false
	default:
		return int(v) - 1, true
	}
}
