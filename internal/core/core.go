// Package core implements the NeSC controller — the paper's primary
// contribution: a self-virtualizing, nested storage controller that exposes
// a physical function (PF) to the hypervisor and up to 1,024 virtual
// functions (VFs) to guests, translating each VF's virtual LBAs to physical
// LBAs in hardware through per-VF extent trees resident in host memory.
//
// The microarchitecture follows the paper's Figures 6–8:
//
//	per-function register files and DMA request/completion rings
//	  → per-VF request queues
//	  → round-robin VF multiplexer (splits requests into 1 KB chunks)
//	  → shared vLBA queue
//	  → translation unit: 8-entry BTLB + block-walk unit that overlaps
//	    two tree walks to hide host-memory DMA latency
//	  → shared pLBA queue
//	  → data-transfer unit (DMA engine channels) touching the medium
//	PF requests use physical LBAs directly and bypass translation through
//	the out-of-band (OOB) channel so a stalled VF walk never blocks the
//	hypervisor (paper §V-A).
//
// Translation misses (lazy allocation, pruned subtrees) park the chunk, latch
// MissAddress/MissSize, and interrupt the hypervisor, which allocates
// blocks, rebuilds the tree, and writes RewalkTree to hand the VF's parked
// chunks back — the read/write flows of Figure 5. Other VFs translate on.
package core

import (
	"fmt"

	"nesc/internal/blockdev"
	"nesc/internal/fault"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/stats"
)

// Params configures the controller geometry and cost model.
type Params struct {
	// NumVFs is the maximum virtual function count (the prototype supports
	// 64).
	NumVFs int
	// BlockSize is the translation granularity in bytes (the paper operates
	// at 1 KB, "the smallest block size supported by ext4").
	BlockSize int
	// BTLBEntries sizes the block translation lookaside buffer (8 in the
	// paper: "a small cache of the last 8 extents used in translation").
	BTLBEntries int
	// Walkers is the number of concurrently overlapped tree walks (2 in the
	// paper: "the unit can overlap two translation processes").
	Walkers int
	// DTUChannels is the number of outstanding data-transfer operations the
	// DMA engine sustains.
	DTUChannels int
	// QueuesPerVF is the number of queue pairs each function exposes
	// (default 1, the paper's prototype; clamped to MaxQueuesPerFn). The
	// hypervisor may program an individual VF down from this capability
	// through the MgmtQueues management register.
	QueuesPerVF int
	// QueuePoolSize bounds the device-wide queue-pair pool. Queue-pair
	// state (cursors, doorbell FIFO) is not built per configured function;
	// it is leased from a shared pool when a ring register is first
	// programmed and returned when the function is disabled, so hardware
	// queue state scales with *leased* queues, not NumVFs×QueuesPerVF.
	// Zero means unbounded (the pool grows on demand), which keeps every
	// historical configuration working unchanged.
	QueuePoolSize int

	// Cost model.
	DescriptorFetchTime sim.Time // decode cost per fetched descriptor
	MuxChunkTime        sim.Time // per-chunk multiplexer occupancy
	BTLBHitTime         sim.Time // BTLB lookup
	WalkParseTime       sim.Time // node decode after its DMA arrives
	DTUChunkOverhead    sim.Time // per-chunk scatter/gather handling

	// Error recovery.
	//
	// MediumRetryDelay is the cost of each of the DTU's MediumRetryMax retries
	// of a transient medium error.
	MediumRetryDelay sim.Time
	// MissResendInterval, when positive, re-raises the miss MSI while a
	// function's miss stays latched (recovers a miss interrupt lost on the
	// wire). Zero disables resending and leaves the event queue untouched.
	MissResendInterval sim.Time

	// AdmitInflight, when positive, bounds each VF's fetched-but-
	// uncompleted requests: a descriptor fetched past the bound completes
	// immediately with the retryable StatusBusy instead of entering the
	// pipeline, so a deadline-sensitive tenant fails fast at the device
	// rather than queueing behind work it can no longer use. Zero (the
	// default) disables admission control entirely.
	AdmitInflight int

	// DeviceID identifies this controller within a multi-device fabric
	// (default 0, the primary). It prefixes the device's PCIe function and
	// pipeline-process names, stamps flight-recorder captures, and keys the
	// injector's device-kill/partition latches at the medium. Device 0 keeps
	// the historical unprefixed names so single-device runs are bit-identical.
	DeviceID int
}

const (
	// MediumRetryMax is how many times the DTU retries a transient medium
	// error before latching StatusMediumError.
	MediumRetryMax = 3
	// reqQueueDepth, vlbaQueueDepth and plbaQueueDepth are the depths of each
	// function's request queue, of the shared vLBA queue and of each VF's
	// queue of translated chunks awaiting a DMA channel.
	reqQueueDepth  = 64
	vlbaQueueDepth = 64
	plbaQueueDepth = 64
)

// DefaultParams matches the paper's prototype.
func DefaultParams() Params {
	return Params{
		NumVFs:              64,
		BlockSize:           1024,
		BTLBEntries:         8,
		Walkers:             2,
		DTUChannels:         4,
		QueuesPerVF:         1,
		DescriptorFetchTime: 100 * sim.Nanosecond,
		MuxChunkTime:        60 * sim.Nanosecond,
		BTLBHitTime:         80 * sim.Nanosecond,
		WalkParseTime:       150 * sim.Nanosecond,
		DTUChunkOverhead:    220 * sim.Nanosecond,
		MediumRetryDelay:    2 * sim.Microsecond,
	}
}

// Request is one descriptor fetched from a function's request ring.
type Request struct {
	fn     *Function
	q      *fnQueue // queue the descriptor was fetched from (completion routing)
	Op     uint32   // opcode with flag bits stripped
	ID     uint32
	LBA    uint64 // vLBA for VFs, pLBA for the PF
	Count  uint32 // blocks
	status uint32
	Buf    int64  // host memory address of the data buffer
	left   int    // chunks outstanding
	epoch  uint32 // function reset epoch at fetch time; stale = aborted
	qGen   uint32 // q's lease generation at fetch time; stale = drop completion

	// deadline is the absolute abandon-by time stamped at fetch when the
	// originating queue armed QRegDeadline (zero = no deadline). Every
	// pipeline stage checks it and completes the request StatusBusy once
	// it passes. admitted marks requests that entered the VF pipeline (and
	// so were charged to the function's pending-chunk estimate).
	deadline sim.Time
	admitted bool

	// Protection information (OpFlagPI). piGuard is the submitter's XOR of
	// per-block CRCs from the descriptor; piAccum is the device-side
	// accumulator, XORed per chunk so it is order-independent across DMA
	// channels.
	pi      bool
	piGuard uint32
	piAccum uint32

	// t0 is the virtual time the descriptor fetch began. ReqID is the
	// controller-assigned monotonic request id threading this request through
	// spans, flight records, and scoreboard events. Tel is the observer's
	// per-request record, nil unless it keeps one.
	t0    sim.Time
	ReqID uint64
	Tel   any
}

// chunk is the unit of translation and data transfer (one block).
type chunk struct {
	req     *Request
	idx     int    // 0-based chunk index within the request
	lba     uint64 // vLBA before translation, pLBA after
	buf     int64
	zero    bool        // hole read: DMA zeros, skip the medium
	how     Translation // set by the walker
	verdict uint32      // RewalkTree's verdict on a chunk that missed, once handed back

	// mark is when the chunk's current stage began: stamped as the
	// multiplexer queues it and advanced by every stage call. Zero on a PF
	// chunk until a DMA channel picks it up (it has no queue history).
	mark sim.Time
}

// vfShardSize is the VF-table shard granularity. 64 functions per shard
// aligns a shard exactly with one miss-pending bitmap bank, so the banked
// PFRegMissPendingBank registers read straight out of one shard.
const vfShardSize = 64

// Controller is the NeSC device instance.
type Controller struct {
	Eng    *sim.Engine
	Fab    *pcie.Fabric
	Medium *blockdev.Medium
	P      Params

	pf *Function
	// vfShards is the lazily materialized VF table: shard s holds VFs
	// s*vfShardSize .. s*vfShardSize+63. The shard index is built at New
	// (a few pointers even at NumVFs=1024); a shard and its Function
	// entries come into existence only when a VF is first touched through
	// MMIO, so a configured-but-idle VF costs nothing.
	vfShards [][]*Function
	nMat     int // materialized VF count

	vlbaQ    *sim.FIFO[*chunk]
	walkW    *sim.Semaphore // counts the chunks of vlbaQ and of unparked's functions
	unparked []*Function    // functions whose parked chunks walkers take first, in order
	oobQ     *sim.FIFO[*chunk]
	// scrubQ holds verify (OpVerify) chunks. The DTU drains it only when the
	// OOB and every VF queue are empty — scavenger priority, so background
	// scrubbing provably never delays foreground chunks at the pick point.
	scrubQ *sim.FIFO[*chunk]
	dtuW   *sim.Semaphore // counts items across per-VF pLBA queues+oobQ+scrubQ
	muxW   *sim.Semaphore // counts requests across all VF request queues

	// The two weighted schedulers over the VFs (drr.go): mux hands fetched
	// requests to the translation stage, dtu hands translated chunks to the
	// DMA channels.
	mux, dtu drr

	// Device-wide queue-pair pool (lease on first ring programming, return
	// on function disable). qFree is the free list; qAllocated counts pool
	// members ever built, bounded by Params.QueuePoolSize when nonzero.
	qFree      []*fnQueue
	qAllocated int

	btlb *btlb

	// Inj, when non-nil, is consulted for DMA payload corruption (the
	// DMACorrupt site); medium-side sites are handled inside the Medium.
	Inj *fault.Injector

	// zeroCRC is the CRC of an all-zero block, accumulated for hole chunks
	// of PI reads.
	zeroCRC uint32

	obs Observer // what every report goes to (observe.go)

	// reqSeq issues ReqIDs: a per-controller monotonic counter stamped on
	// every fetched descriptor (pure state, so it never perturbs the event
	// schedule).
	reqSeq uint64

	barBase int64
	sriov   pcie.SRIOVCap

	// Stats.
	BTLBStats     stats.Ratio
	WalkNodeReads int64
	Misses        int64
	ChunksDone    int64
	ReqsDone      int64

	// CoW stats: writes that trapped on a write-protected extent, and BTLB
	// entries dropped by the targeted invalidation command.
	CowFaults         int64
	BTLBInvalidations int64

	// Latches for the PF targeted-invalidation command (PFRegInvVLBA/Count).
	invVLBA  uint64
	invCount uint64

	// Recovery stats with no per-function counterpart; the per-function error
	// counters (FnCounters) are summed over the device by Counters.
	AbortedChunks       int64 // chunks killed by a reset
	MissResends         int64 // miss MSIs re-raised by the resend timer
	ScrubChunks         int64 // verify chunks processed
	DeadlineExpirations int64 // chunks abandoned StatusBusy past their deadline
	// chunkEWMA is a timeless estimator of DTU chunk service time (updated
	// by plain arithmetic on timestamps the DTU loop already takes, so it
	// never perturbs the event schedule). The admission gate multiplies it
	// by a function's pending chunks to decide whether a deadline-armed
	// request can possibly finish in time.
	chunkEWMA sim.Time

	// Queue-pair pool stats.
	QueueLeases     int64 // queue pairs leased to functions
	QueueReturns    int64 // queue pairs returned to the pool
	QueueLeaseFails int64 // ring programmings rejected by an exhausted pool
	// ShadowBatches counts fetch batches initiated from a queue's shadow
	// doorbell word rather than an MMIO doorbell write.
	ShadowBatches int64
}

// New builds a controller on the fabric, registers its functions, and starts
// its pipeline processes. The medium is the physical storage behind the PF's
// LBA space; obs is told what the controller does (nil: nothing is).
func New(eng *sim.Engine, fab *pcie.Fabric, medium *blockdev.Medium, p Params, obs Observer) (*Controller, error) {
	if p.BlockSize != medium.Store().BlockSize() {
		return nil, fmt.Errorf("core: controller block size %d != medium block size %d", p.BlockSize, medium.Store().BlockSize())
	}
	if p.QueuesPerVF < 1 {
		p.QueuesPerVF = 1
	}
	if p.QueuesPerVF > ring.MaxQueuesPerFn {
		return nil, fmt.Errorf("core: QueuesPerVF %d exceeds the register-file limit %d", p.QueuesPerVF, ring.MaxQueuesPerFn)
	}
	// A VF's latched miss is visible to the host only through its bit in a
	// miss-pending bank; a VF past the last bank would stall every miss.
	if maxVFs := ring.PFRegMissPendingBanks * 64; p.NumVFs > maxVFs {
		return nil, fmt.Errorf("core: NumVFs %d exceeds the miss-pending register limit %d", p.NumVFs, maxVFs)
	}
	c := &Controller{
		Eng:      eng,
		Fab:      fab,
		Medium:   medium,
		P:        p,
		vfShards: make([][]*Function, (p.NumVFs+vfShardSize-1)/vfShardSize),
		vlbaQ:    sim.NewFIFO[*chunk](eng, vlbaQueueDepth),
		walkW:    sim.NewSemaphore(eng, 0),
		oobQ:     sim.NewFIFO[*chunk](eng, 0),
		scrubQ:   sim.NewFIFO[*chunk](eng, 0),
		dtuW:     sim.NewSemaphore(eng, 0),
		muxW:     sim.NewSemaphore(eng, 0),
		btlb:     newBTLB(p.BTLBEntries),
		sriov:    pcie.SRIOVCap{TotalVFs: p.NumVFs},
		obs:      obs,
	}
	c.mux, c.dtu = newDRR(c, drrMux), newDRR(c, drrDTU)
	c.zeroCRC = ring.BlockCRC(make([]byte, p.BlockSize))
	medium.SetDeviceIndex(p.DeviceID)
	// The PF is eager — it carries the device's management plane — but every
	// VF materializes lazily on its first MMIO touch, so a huge configured
	// VF count costs only the shard index above.
	c.pf = c.newFunction(0, fab.RegisterFunction(c.devName("nesc")+"-pf"))
	c.pf.enabled = true
	c.pf.sizeBlocks = uint64(medium.Store().NumBlocks())
	c.Report(Event{Kind: EvMaterialized, Obj: c.pf})
	c.barBase = fab.MapBAR(c, c.BARSize())
	fab.AllocMSIVectors(c.pf.id, c.nVec())

	// Pipeline processes.
	eng.Go(c.devName("nesc")+"-mux", c.muxLoop)
	for w := 0; w < p.Walkers; w++ {
		eng.Go(fmt.Sprintf("%s-walker%d", c.devName("nesc"), w), c.walkerLoop)
	}
	for d := 0; d < p.DTUChannels; d++ {
		eng.Go(fmt.Sprintf("%s-dtu%d", c.devName("nesc"), d), c.dtuLoop)
	}
	return c, nil
}

// devName returns base for the primary device and base<ID> for replicas, so
// a multi-device fabric's functions and pipeline processes are tellable
// apart while single-device naming stays exactly historical.
func (c *Controller) devName(base string) string {
	if c.P.DeviceID == 0 {
		return base
	}
	return fmt.Sprintf("%s%d", base, c.P.DeviceID)
}

// BARBase reports the device's bus address as enumerated on the fabric.
func (c *Controller) BARBase() int64 { return c.barBase }

// PF returns the physical function.
func (c *Controller) PF() *Function { return c.pf }

// VF returns virtual function idx (0-based), materializing its device state
// on first touch. Reaching for a VF — from the hypervisor, a guest mapping,
// or a test — is exactly the "first MMIO access" event that brings it into
// existence, so the accessor is the materialization point.
func (c *Controller) VF(idx int) *Function {
	if f := c.vfAt(idx); f != nil {
		return f
	}
	return c.materializeVF(idx)
}

// vfAt returns VF idx if it has been materialized, nil otherwise (including
// out-of-range indices). It never allocates, so scan paths that must not
// conjure state (miss-pending bitmaps, schedulers) use it.
func (c *Controller) vfAt(idx int) *Function {
	if idx < 0 || idx >= c.P.NumVFs {
		return nil
	}
	sh := c.vfShards[idx/vfShardSize]
	if sh == nil {
		return nil
	}
	return sh[idx%vfShardSize]
}

// materializeVF builds VF idx's device state: PCIe identity, MSI vectors,
// register file, request queue, and fetch process. All of it is timeless
// (the fetch process parks immediately), so materializing mid-run does not
// perturb the event schedule. Each scheduler gives it the credit an
// always-present idle VF would hold (drr.admit), keeping low-VF-count
// schedules bit-identical to the eager construction.
func (c *Controller) materializeVF(idx int) *Function {
	if idx < 0 || idx >= c.P.NumVFs {
		panic(fmt.Sprintf("core: VF index %d out of range (NumVFs=%d)", idx, c.P.NumVFs))
	}
	s := idx / vfShardSize
	if c.vfShards[s] == nil {
		c.vfShards[s] = make([]*Function, vfShardSize)
	}
	f := c.newFunction(idx+1, c.Fab.RegisterFunction(fmt.Sprintf("%s-vf%d", c.devName("nesc"), idx)))
	c.Fab.AllocMSIVectors(f.id, c.nVec())
	c.mux.admit(f)
	c.dtu.admit(f)
	c.vfShards[s][idx%vfShardSize] = f
	c.nMat++
	c.Report(Event{Kind: EvMaterialized, Fn: idx + 1, Obj: f})
	return f
}

// nVec is each function's MSI vector count: one completion vector per queue
// plus the miss vector (vector 1, raised only from the PF but reserved in
// every function's numbering). New clamps QueuesPerVF to at least 1.
func (c *Controller) nVec() int { return c.P.QueuesPerVF + 1 }

// forEachVF visits the materialized VFs in function-index order.
func (c *Controller) forEachVF(fn func(*Function)) {
	for _, sh := range c.vfShards {
		if sh == nil {
			continue
		}
		for _, f := range sh {
			if f != nil {
				fn(f)
			}
		}
	}
}

// MaterializedVFs reports how many VFs have device state built.
func (c *Controller) MaterializedVFs() int { return c.nMat }

// LeasedQueues reports how many queue pairs are currently leased out.
func (c *Controller) LeasedQueues() int { return c.qAllocated - len(c.qFree) }

// StateFootprint estimates the controller's resident device-state bytes
// from explicit counts of what is actually allocated — materialized
// functions, reserved queue slots, pooled queue pairs, shard index and
// active bitmaps. The per-item sizes are nominal model constants (not
// unsafe.Sizeof), so the figure is deterministic across runs and platforms;
// the scale experiment uses it to show memory growing with active tenants,
// not configured ones.
func (c *Controller) StateFootprint() int64 {
	const (
		fnStateBytes   = 416 // Function struct + register file
		fifoSlotBytes  = 16  // one reserved FIFO slot
		queuePairBytes = 112 // fnQueue struct + doorbell FIFO header
	)
	b := int64(len(c.vfShards)+len(c.mux.active)+len(c.dtu.active)) * 8
	for _, sh := range c.vfShards {
		if sh != nil {
			b += vfShardSize * 8
		}
	}
	fns := int64(1 + c.nMat)
	b += fns * (fnStateBytes + int64(reqQueueDepth+plbaQueueDepth)*fifoSlotBytes)
	b += int64(c.qAllocated) * queuePairBytes
	return b
}

// SRIOV exposes the device's SR-IOV capability record.
func (c *Controller) SRIOV() *pcie.SRIOVCap { return &c.sriov }

// Function is one facet of the controller: the PF or a VF. Each has its own
// register file and queue-pair array, exactly as each SR-IOV function has its
// own PCIe identity.
type Function struct {
	c   *Controller
	idx int // 0 = PF, 1..NumVFs = VFs
	id  pcie.FnID

	// Queue pairs (guest-programmable). numQueues is the active count the
	// hypervisor programmed through MgmtQueues; queues beyond it exist in
	// the register file but reject traffic. A slot is nil until the guest
	// programs a ring register, which leases queue-pair state from the
	// device-wide pool; disabling the function returns every slot.
	queues    []*fnQueue
	numQueues int
	// fetchW counts pending doorbells across all of the function's queues;
	// fetchRR is the intra-function round-robin cursor of the fetch stage.
	fetchW  *sim.Semaphore
	fetchRR int

	// Hypervisor-programmable management registers.
	enabled    bool
	treeRoot   int64
	sizeBlocks uint64
	// fetchBacked marks a VF whose image is a cas manifest fork: holes are
	// not zero-fill but unmaterialized content, so every hole — read or
	// write — raises a MissReasonFetch miss. Survives FLR like the other
	// management registers.
	fetchBacked bool

	// Miss latch (read by the hypervisor on a miss interrupt).
	missAddr    uint64
	missSize    uint32
	missIsWrite bool
	missReason  uint32 // MissReason* code for the latched miss
	missPending bool
	missGen     uint64   // bumped per latch; guards the resend timer
	parked      []*chunk // chunks that missed or came behind a miss (see park)

	// Reset state: resetEpoch is bumped by each function-level reset, and
	// requests stamped with an older epoch are aborted at every pipeline
	// stage; inflight counts fetched-but-uncompleted requests, exposed
	// through RegReset so the hypervisor can poll for drain.
	resetEpoch uint32
	inflight   int64
	// pendingChunks counts blocks of admitted-but-uncompleted requests —
	// the admission gate's backlog estimate for deadline feasibility.
	pendingChunks int64

	reqQ *sim.FIFO[*Request]
	// plbaQ holds the VF's translated chunks awaiting a DMA channel (nil
	// for the PF, whose chunks bypass translation through the OOB queue).
	plbaQ *sim.FIFO[*chunk]

	// QoS: the multiplexer serves up to `weight` requests — and the DMA
	// engine up to `weight` chunks — per VF per scheduling round (deficit
	// round robin; paper §IV-D "different priorities for each VF"). credit is
	// what is left of the current round, one slot per scheduler (drr.slot).
	weight uint32
	credit [2]uint32

	// Stats.
	Reqs, Blocks int64
	FnCounters
}

// FnCounters is the one declaration of the AER-style error counters: each
// Function embeds it and increments the fields in place, and the device total
// is Controller.Counters, their sum over the functions.
type FnCounters struct {
	DMAFaults        int64 // chunks failed by data-buffer DMA faults
	MediumErrors     int64 // chunks that exhausted medium retries
	MediumRetries    int64 // individual medium retry attempts
	Resets           int64 // function-level resets performed
	FetchDrops       int64 // doorbells lost to descriptor-fetch DMA errors
	CplDrops         int64 // completions lost to completion-ring DMA errors
	BadRingSizes     int64 // rejected ring-size register writes
	BadDoorbells     int64 // ignored incoherent doorbell writes
	IntegrityErrors  int64 // requests latched StatusIntegrityError
	IntegrityRepairs int64 // integrity failures healed by retry or scrub rewrite
	AdmitRejects     int64 // requests fast-failed StatusBusy at the admission gate
}

// Add accumulates o into c.
func (c *FnCounters) Add(o *FnCounters) {
	c.DMAFaults += o.DMAFaults
	c.MediumErrors += o.MediumErrors
	c.MediumRetries += o.MediumRetries
	c.Resets += o.Resets
	c.FetchDrops += o.FetchDrops
	c.CplDrops += o.CplDrops
	c.BadRingSizes += o.BadRingSizes
	c.BadDoorbells += o.BadDoorbells
	c.IntegrityErrors += o.IntegrityErrors
	c.IntegrityRepairs += o.IntegrityRepairs
	c.AdmitRejects += o.AdmitRejects
}

// Counters sums the error counters of the PF and every materialized VF.
// Functions are never destroyed, so the sum only grows.
func (c *Controller) Counters() FnCounters {
	t := c.pf.FnCounters
	c.forEachVF(func(f *Function) { t.Add(&f.FnCounters) })
	return t
}

// fnQueue is one of a function's queue pairs: the guest-programmable ring
// registers plus the device-side cursors and doorbell FIFO. Queue pairs are
// pooled device-wide: a function's slot is empty until a ring register
// programming leases one, and a disable returns it for reuse by any
// function.
type fnQueue struct {
	f   *Function
	idx int

	ringBase int64
	ringSize uint32
	cplBase  int64
	consumed uint32 // SQ consumer index (device side)
	cplSeq   uint32 // CQ sequence counter
	// deadline is the queue's per-request latency budget (QRegDeadline):
	// every descriptor fetched from the queue is stamped with
	// fetch-time + deadline and abandoned with the retryable StatusBusy
	// once the stamp passes. Zero (the default) disarms.
	deadline sim.Time
	// shadowBase, when nonzero, is the host address of the queue's 8-byte
	// shadow-doorbell block (ring.ShadowBytes): the guest publishes new
	// producer indices there and the device publishes how far it consumed
	// before parking, so most doorbell MMIOs can be skipped.
	shadowBase int64

	// gen counts lease/return transitions. Requests are stamped with the
	// lease generation at fetch; a completion whose stamp no longer matches
	// is dropped, so a recycled queue can never receive a previous tenant's
	// completion DMA.
	gen uint32

	doorbells *sim.FIFO[uint32]

	// Reqs counts requests fetched from this queue (intra-VF fairness
	// accounting); reset when the queue returns to the pool.
	Reqs int64
}

// clear wipes the queue's guest-programmable state and cursors and discards
// its pending doorbells (FLR, disable).
func (q *fnQueue) clear() {
	q.ringBase, q.ringSize, q.cplBase = 0, 0, 0
	q.consumed, q.cplSeq = 0, 0
	q.shadowBase = 0
	q.deadline = 0
	for {
		if _, ok := q.doorbells.TryPop(); !ok {
			return
		}
	}
}

// leaseQueue binds a pooled queue pair to function f's slot qi. Returns nil
// (and counts the rejection) when QueuePoolSize is exhausted; the triggering
// register write is ignored, exactly like a write to an out-of-range queue.
func (c *Controller) leaseQueue(f *Function, qi int) *fnQueue {
	var q *fnQueue
	if n := len(c.qFree); n > 0 {
		q = c.qFree[n-1]
		c.qFree = c.qFree[:n-1]
	} else if c.P.QueuePoolSize == 0 || c.qAllocated < c.P.QueuePoolSize {
		q = &fnQueue{doorbells: sim.NewFIFO[uint32](c.Eng, 0)}
		c.qAllocated++
	} else {
		c.QueueLeaseFails++
		return nil
	}
	q.f, q.idx = f, qi
	q.gen++
	f.queues[qi] = q
	c.QueueLeases++
	return q
}

// returnQueue detaches function f's slot qi and puts the queue pair back on
// the free list: ring state cleared, pending doorbells drained, generation
// bumped so in-flight completions for the old tenant die at the guard.
func (c *Controller) returnQueue(f *Function, qi int) {
	q := f.queues[qi]
	if q == nil {
		return
	}
	q.clear()
	q.gen++
	q.Reqs = 0
	q.f = nil
	f.queues[qi] = nil
	c.qFree = append(c.qFree, q)
	c.QueueReturns++
}

func (c *Controller) newFunction(idx int, id pcie.FnID) *Function {
	f := &Function{
		c:      c,
		idx:    idx,
		id:     id,
		fetchW: sim.NewSemaphore(c.Eng, 0),
		reqQ:   sim.NewFIFO[*Request](c.Eng, reqQueueDepth),
		weight: 1,
	}
	f.queues = make([]*fnQueue, c.P.QueuesPerVF)
	f.numQueues = len(f.queues)
	if idx > 0 {
		f.plbaQ = sim.NewFIFO[*chunk](c.Eng, plbaQueueDepth)
	}
	c.Eng.Go(fmt.Sprintf("nesc-fetch%d", idx), f.fetchLoop)
	return f
}

// QueueReqs reports how many requests were fetched from queue q (0 for a
// slot with no queue pair leased).
func (f *Function) QueueReqs(q int) int64 {
	if f.queues[q] == nil {
		return 0
	}
	return f.queues[q].Reqs
}

// ID reports the function's PCIe routing ID.
func (f *Function) ID() pcie.FnID { return f.id }

// Enabled reports whether the function accepts requests.
func (f *Function) Enabled() bool { return f.enabled }

// SizeBlocks reports the virtual device size in blocks.
func (f *Function) SizeBlocks() uint64 { return f.sizeBlocks }

// TreeRoot reports the configured extent tree root (diagnostics).
func (f *Function) TreeRoot() int64 { return f.treeRoot }

// Inflight reports the number of fetched-but-uncompleted requests.
func (f *Function) Inflight() int64 { return f.inflight }

// resetFunction performs a function-level reset (FLR): ring state is cleared,
// queued doorbells are discarded, cached translations are flushed, a latched
// miss is failed, and the reset epoch is bumped so every in-flight request is
// aborted as it reaches its next pipeline stage. The function's management
// state (enable, tree root, size, weight) survives — FLR recovers a wedged
// function without reprovisioning it. Runs in engine context (MMIO delivery).
func (c *Controller) resetFunction(f *Function) {
	f.Resets++
	// Drain every leased queue in index order: ring state, cursors, and
	// queued doorbells all go. The queue pairs stay leased — FLR recovers
	// the function, it does not deprovision it — so an in-flight stale
	// completion still finds its generation intact and dies at the
	// ring-state guard, never in another tenant's memory. (Leftover
	// fetch-semaphore credits for the discarded doorbells make the fetch
	// loop scan and find nothing — harmless and deterministic.)
	for _, q := range f.queues {
		if q == nil {
			continue
		}
		q.clear()
	}
	c.endInflight(f)
	c.Report(Event{Kind: EvReset, Fn: f.idx, Arg: uint64(f.resetEpoch)})
}

// endInflight ends f's in-flight work, for an FLR and a disable alike: its
// cached translations go, the epoch moves on, so every request fetched before
// now retires as aborted at its next stage and no walk it started is used,
// and a latched miss is failed, handing the parked chunks back to drain.
func (c *Controller) endInflight(f *Function) {
	c.btlb.invalidateRange(f.idx, 0, 0)
	f.resetEpoch++
	if f.missPending {
		f.missReason = ring.MissReasonTranslate
		c.unpark(f, ring.RewalkFail)
	}
}
