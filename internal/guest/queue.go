package guest

import (
	"encoding/binary"
	"errors"
	"sort"

	"nesc/internal/hostmem"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// ErrTimeout reports a request that got no completion within the retry
// budget; ErrReset reports one killed by a function-level reset; ErrDetached
// reports one whose driver was closed because its function went away (the VM
// stopped, or its leg moved to another device).
var (
	ErrTimeout  = errors.New("nesc: request timed out")
	ErrReset    = errors.New("nesc: request aborted by function reset")
	ErrDetached = errors.New("nesc: request aborted: device detached from the guest")
)

// RingConfig is the one settings value of a ring client — the hypervisor's PF
// driver and every guest VF driver alike. hypervisor.Params carries the
// platform's policy fields; whoever builds a client starts from those, fills
// in what is particular to that client (ring depth, queue count) and hands it
// to NewMultiQueue, which leaves a copy on every queue pair. Nothing changes it
// afterwards but MultiQueue.SetBackoff.
type RingConfig struct {
	// Entries sizes each queue's request and completion rings (0 means 128).
	Entries int
	// Queues is the number of queue pairs to drive (0 means 1). It must not
	// exceed the device's programmed per-function queue count.
	Queues int
	// Policy steers submissions across queues (default PolicyHash).
	Policy Policy
	// SubmitTime is the driver CPU cost per submission.
	SubmitTime sim.Time

	// Timeout, when positive, bounds each submission attempt: on expiry the
	// driver first polls the completion ring (recovering completions whose
	// MSI was lost), then resubmits with exponential backoff — attempt n
	// waits Timeout<<n — up to RetryMax resubmissions before surfacing
	// ErrTimeout. Zero (the default) waits forever, preserving the
	// fault-free event schedule exactly.
	Timeout  sim.Time
	RetryMax int

	// Deadline, when positive, is the per-request latency budget programmed
	// into each queue's QRegDeadline register: the device abandons any
	// request still unfinished past fetch-time + Deadline and completes it
	// with the retryable StatusBusy. Zero leaves the register untouched — no
	// MMIO write, no schedule change.
	Deadline sim.Time

	// PIBlock, when positive, enables end-to-end protection information at
	// that block granularity (the device block size): writes carry a
	// driver-computed guard in the descriptor, and read completions return a
	// device-computed guard the driver verifies against the received payload.
	// Guard math is timeless, so enabling PI never perturbs the event
	// schedule.
	PIBlock int

	// Backoff, when set, is told the driver-side admission backoff time the
	// tenant waited between busy-rejected resubmissions of one request —
	// latency the device pipeline never sees but the guest absolutely does.
	// The platform's observer binds it (SetBackoff) to the attribution row the
	// device pipeline credits the same tenant's requests to.
	Backoff func(op uint32, waited sim.Time)
}

// QueueCounters is the one declaration of a queue pair's counters: QueuePair
// embeds it and increments the fields in place, and whoever wants a total over
// several queues sums them with Add.
type QueueCounters struct {
	// Submitted counts requests issued.
	Submitted int64
	// DoorbellsSkipped counts MMIO doorbell writes elided by the shadow
	// protocol (the device was still fetching and picked the submission up
	// from the shadow block instead).
	DoorbellsSkipped int64

	// Recovery counters.
	BusyRejects       int64 // StatusBusy completions (admission control / deadline expiry)
	Timeouts          int64 // attempts that hit their deadline
	Resubmits         int64 // requests reissued after a timeout or abort
	PolledCompletions int64 // completions recovered by ring polling
	StaleCompletions  int64 // ring entries whose id had no waiter
	SeqGaps           int64 // sequence numbers skipped over by polling
	Aborts            int64 // submissions killed by a function reset
	Resets            int64 // Recover calls
	PIMismatches      int64 // read payloads that failed driver-side PI verification
	PIWriteErrors     int64 // StatusIntegrityError completions (device-side PI check)
	// RootCauseOverrides counts failed submissions whose surfaced error came
	// from an earlier attempt's root cause (an integrity failure) rather
	// than the final attempt's own timeout or abort.
	RootCauseOverrides int64
}

// Add accumulates o into c.
func (c *QueueCounters) Add(o *QueueCounters) {
	c.Submitted += o.Submitted
	c.DoorbellsSkipped += o.DoorbellsSkipped
	c.BusyRejects += o.BusyRejects
	c.Timeouts += o.Timeouts
	c.Resubmits += o.Resubmits
	c.PolledCompletions += o.PolledCompletions
	c.StaleCompletions += o.StaleCompletions
	c.SeqGaps += o.SeqGaps
	c.Aborts += o.Aborts
	c.Resets += o.Resets
	c.PIMismatches += o.PIMismatches
	c.PIWriteErrors += o.PIWriteErrors
	c.RootCauseOverrides += o.RootCauseOverrides
}

// QueuePair is the NeSC ring-protocol client shared by the guest VF driver
// and the hypervisor's PF driver: it owns a request/completion ring pair in
// host memory, programs the function's ring registers over MMIO, and matches
// completions (delivered by interrupt) back to blocked submitters. It
// supports multiple concurrent submitters, so a queue-depth > 1 workload
// keeps the device pipeline full.
type QueuePair struct {
	eng     *sim.Engine
	mem     *hostmem.Memory
	fab     *pcie.Fabric
	pageBus int64      // bus address of the function's register page
	queue   int        // queue-pair index within the function
	cfg     RingConfig // the client's settings, defaults filled in (NewMultiQueue)
	entries uint32     // cfg.Entries in the type of the ring-index arithmetic

	// Bus addresses of the registers in this queue's block: rings and
	// doorbell, the shadow-doorbell register, and the per-request
	// deadline-budget register (QRegDeadline).
	ringBaseReg, ringSizeReg, cplBaseReg, doorbellReg int64
	shadowReg, deadlineReg                            int64

	ringBase hostmem.Addr
	cplBase  hostmem.Addr
	// shadowBase, when non-zero, is the host shadow-doorbell block shared
	// with the device (ArmShadow): the driver publishes its producer index
	// at +ShadowOffProd and reads the device's consumed-up-to event index
	// at +ShadowOffEvent, ringing the MMIO doorbell only when the device
	// may have stopped fetching for this queue.
	shadowBase hostmem.Addr
	prod       uint32
	lastSeq    uint32
	nextID     uint32
	// closed is set when the driver is closed (NescDriver.Close): no
	// descriptor is written from then on, and the rings are freed once the
	// device is done with them.
	closed bool

	slots   *sim.Semaphore
	waiters map[uint32]*qpWaiter

	QueueCounters
}

type qpWaiter struct {
	sig     *sim.Signal
	status  uint32
	guard   uint32
	aborted bool
}

// newQueuePair allocates and programs rings of cfg.Entries slots for queue
// pair queue of the function whose register page sits at pageBus
// (NewMultiQueue builds them and has filled in cfg's defaults).
func newQueuePair(p *sim.Proc, eng *sim.Engine, mem *hostmem.Memory, fab *pcie.Fabric, pageBus int64, queue int, cfg RingConfig) (*QueuePair, error) {
	entries := cfg.Entries
	qp := &QueuePair{
		eng:     eng,
		mem:     mem,
		fab:     fab,
		pageBus: pageBus,
		queue:   queue,
		cfg:     cfg,
		entries: uint32(entries),
		slots:   sim.NewSemaphore(eng, entries),
		waiters: make(map[uint32]*qpWaiter),
	}
	block := pageBus + ring.QueueRegBase + int64(queue)*ring.QueueRegStride
	qp.ringBaseReg = block + ring.QRegRingBase
	qp.ringSizeReg = block + ring.QRegRingSize
	qp.cplBaseReg = block + ring.QRegCplBase
	qp.doorbellReg = block + ring.QRegDoorbell
	qp.shadowReg = block + ring.QRegShadow
	qp.deadlineReg = block + ring.QRegDeadline
	var err error
	if qp.ringBase, err = mem.Alloc(int64(entries)*ring.DescBytes, 64); err != nil {
		return nil, err
	}
	if qp.cplBase, err = mem.Alloc(int64(entries)*ring.CplBytes, 64); err != nil {
		return nil, err
	}
	if err := mem.Zero(qp.ringBase, int64(entries)*ring.DescBytes); err != nil {
		return nil, err
	}
	if err := mem.Zero(qp.cplBase, int64(entries)*ring.CplBytes); err != nil {
		return nil, err
	}
	if err := qp.program(p); err != nil {
		return nil, err
	}
	return qp, nil
}

// program writes the queue's ring registers over MMIO.
func (qp *QueuePair) program(p *sim.Proc) error {
	if err := qp.fab.MMIOWrite(p, qp.ringBaseReg, 8, uint64(qp.ringBase)); err != nil {
		return err
	}
	if err := qp.fab.MMIOWrite(p, qp.ringSizeReg, 4, uint64(qp.entries)); err != nil {
		return err
	}
	return qp.fab.MMIOWrite(p, qp.cplBaseReg, 8, uint64(qp.cplBase))
}

// Queue reports the queue-pair index this driver owns within its function.
func (qp *QueuePair) Queue() int { return qp.queue }

// ArmShadow enables shadow-doorbell batching on this queue: it allocates the
// shared shadow block (first call), zeroes it, and programs its host address
// into the queue's shadow register. Armed, Submit publishes each new producer
// index in the block and rings the MMIO doorbell only when the device's event
// index shows it may have stopped fetching for this queue — a burst of
// submissions against a busy device collapses to one MMIO write.
func (qp *QueuePair) ArmShadow(p *sim.Proc) error {
	if qp.shadowBase == 0 {
		base, err := qp.mem.Alloc(ring.ShadowBytes, 8)
		if err != nil {
			return err
		}
		qp.shadowBase = base
	}
	if err := qp.mem.Zero(qp.shadowBase, ring.ShadowBytes); err != nil {
		return err
	}
	return qp.fab.MMIOWrite(p, qp.shadowReg, 8, uint64(qp.shadowBase))
}

// ShadowArmed reports whether shadow-doorbell batching is enabled.
func (qp *QueuePair) ShadowArmed() bool { return qp.shadowBase != 0 }

// armDeadline programs the queue's per-request deadline budget into
// QRegDeadline. A zero budget is never written: the register resets to zero
// anyway, and skipping the write keeps the deadline-free MMIO schedule
// byte-identical.
func (qp *QueuePair) armDeadline(p *sim.Proc) error {
	if qp.cfg.Deadline <= 0 {
		return nil
	}
	return qp.fab.MMIOWrite(p, qp.deadlineReg, 8, uint64(qp.cfg.Deadline))
}

// piGuard computes the request-level PI guard over the payload at bufAddr.
func (qp *QueuePair) piGuard(count uint32, bufAddr int64) (uint32, error) {
	data, err := qp.mem.Slice(bufAddr, int64(count)*int64(qp.cfg.PIBlock))
	if err != nil {
		return 0, err
	}
	return ring.PIGuard(data, qp.cfg.PIBlock), nil
}

// FreeSlots reports how many submission slots are currently unclaimed; the
// least-occupied multi-queue policy steers by it.
func (qp *QueuePair) FreeSlots() int { return qp.slots.Available() }

// Entries reports the queue's submission-ring capacity.
func (qp *QueuePair) Entries() int { return int(qp.entries) }

// Depth reports how many submissions are currently in flight on this queue
// (claimed slots); the per-queue depth gauge exports it.
func (qp *QueuePair) Depth() int { return int(qp.entries) - qp.slots.Available() }

// DMARanges reports the ring memory the hypervisor must grant to the device
// when the IOMMU is enabled.
func (qp *QueuePair) DMARanges() [][2]int64 {
	return [][2]int64{
		{qp.ringBase, int64(qp.entries) * ring.DescBytes},
		{qp.cplBase, int64(qp.entries) * ring.CplBytes},
	}
}

// DeviceSize reads the function's device-size register.
func (qp *QueuePair) DeviceSize(p *sim.Proc) (uint64, error) {
	return qp.fab.MMIORead(p, qp.pageBus+ring.RegDeviceSize, 8)
}

// Submit issues one request and blocks until its completion, returning the
// device status code. With Timeout set, a lost request is recovered by
// polling and resubmission; past the retry budget Submit returns ErrTimeout
// (or ErrReset when the request was killed by a function-level reset).
// Integrity failures — a StatusIntegrityError completion or a driver-side PI
// mismatch on a read payload — are retried by resubmission the same way; a
// mismatch that outlives the budget surfaces ring.ErrIntegrity, never the
// corrupted data as a clean success.
func (qp *QueuePair) Submit(p *sim.Proc, op uint32, lba uint64, count uint32, bufAddr int64) (uint32, error) {
	qp.slots.Acquire(p)
	defer qp.slots.Release()
	wireOp := op
	var guard uint32
	if qp.cfg.PIBlock > 0 && (ring.OpCode(op) == ring.OpRead || ring.OpCode(op) == ring.OpWrite) {
		wireOp |= ring.OpFlagPI
		if ring.OpCode(op) == ring.OpWrite {
			g, err := qp.piGuard(count, bufAddr)
			if err != nil {
				return 0, err
			}
			guard = g
		}
	}
	// The first root cause observed across the whole resubmission ladder: a
	// request that first failed integrity verification and then burned the
	// rest of its budget on timeouts must surface the corruption, not the
	// final attempt's timeout.
	rootPIBad := false
	var rootStatus uint32
	// Driver-side admission backoff the tenant waited across the whole
	// ladder; credited to the attribution row on exit (any path).
	var backoff sim.Time
	if qp.cfg.Backoff != nil {
		defer func() { qp.cfg.Backoff(op, backoff) }()
	}
	for attempt := 0; ; attempt++ {
		p.Sleep(qp.cfg.SubmitTime)
		if qp.closed {
			return 0, ErrDetached
		}
		qp.nextID++
		id := qp.nextID
		var desc [ring.DescBytes]byte
		ring.EncodeDescriptorPI(desc[:], wireOp, id, lba, count, bufAddr, guard)
		if err := qp.mem.Write(ring.DescSlot(qp.ringBase, qp.prod, qp.entries), desc[:]); err != nil {
			return 0, err
		}
		qp.prod++
		qp.Submitted++
		w := &qpWaiter{sig: sim.NewSignal(qp.eng)}
		qp.waiters[id] = w
		if qp.skipDoorbell(attempt) {
			qp.DoorbellsSkipped++
		} else if err := qp.fab.MMIOWrite(p, qp.doorbellReg, 4, uint64(qp.prod)); err != nil {
			delete(qp.waiters, id) // the doorbell never rang; drop the waiter
			return 0, err
		}
		delivered := w.sig.AwaitTimeout(p, qp.cfg.Timeout<<uint(attempt))
		if qp.closed {
			w.sig.Await(p) // the device may hold the request until Close releases it
			return 0, ErrDetached
		}
		if !delivered {
			// Deadline hit: the completion MSI may have been lost while the
			// entry landed. Poll the ring before declaring the request dead.
			qp.Timeouts++
			qp.pollRing()
			delivered = w.sig.Fired()
		}
		piBad, busy := false, false
		if delivered && !w.aborted {
			switch {
			case w.status == ring.StatusBusy:
				busy = true
			case qp.completionOK(op, w, count, bufAddr):
				return w.status, nil
			default:
				piBad = true
			}
		}
		delete(qp.waiters, id) // a late completion for id becomes stale
		if w.aborted {
			qp.Aborts++
		}
		if busy {
			qp.BusyRejects++
		}
		if piBad && !rootPIBad {
			rootPIBad = true
			rootStatus = w.status
		}
		if attempt >= qp.cfg.RetryMax {
			status, err, overridden := finalVerdict(w.aborted, piBad, busy, rootPIBad, rootStatus)
			if overridden {
				qp.RootCauseOverrides++
			}
			return status, err
		}
		if busy && qp.cfg.Timeout > 0 {
			// The device fast-failed under admission pressure: back off
			// before resubmitting, on the same exponential ladder a timeout
			// would have used, so retries don't hammer a saturated function.
			wait := qp.cfg.Timeout << uint(attempt)
			p.Sleep(wait)
			backoff += wait
		}
		qp.Resubmits++
	}
}

// skipDoorbell implements the guest half of the shadow-doorbell protocol:
// publish the new producer index in the shared block, then decide from the
// device's event index whether the MMIO doorbell can be elided. Both host
// accesses are timeless, so the whole decision happens at one simulated
// instant — the device observes either the old or the new SHADOW value,
// never a torn state. Retries always ring: after a timeout the conservative
// assumption is that the device lost track of this queue entirely.
func (qp *QueuePair) skipDoorbell(attempt int) bool {
	if qp.shadowBase == 0 || attempt != 0 {
		return false
	}
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], qp.prod)
	if err := qp.mem.Write(qp.shadowBase+ring.ShadowOffProd, buf[:]); err != nil {
		return false
	}
	if err := qp.mem.Read(qp.shadowBase+ring.ShadowOffEvent, buf[:]); err != nil {
		return false
	}
	// The device's event index has reached the previous producer value: it
	// consumed everything it was ever told about and may have parked, so the
	// doorbell must ring. Behind it, the device is still fetching and will
	// re-read SHADOW before parking (shadowFollow) — safe to skip.
	event := binary.BigEndian.Uint32(buf[:])
	return !ring.ShouldRing(qp.prod-1, event)
}

// finalVerdict picks what a submission ladder that exhausted its retry
// budget surfaces. An integrity root cause recorded on ANY attempt wins
// over the final attempt's own timeout or abort — otherwise a transient
// run of lost completions after a detected corruption would report
// ErrTimeout and the corruption would vanish from Stats and diagnostics.
// It reports overridden=true when that promotion actually changed the
// outcome (the final attempt itself was not the integrity failure).
func finalVerdict(lastAborted, lastPIBad, lastBusy, rootPIBad bool, rootStatus uint32) (uint32, error, bool) {
	overridden := rootPIBad && !lastPIBad
	switch {
	case rootPIBad && rootStatus == ring.StatusIntegrityError:
		// The device's own check failed the request.
		return rootStatus, nil, overridden
	case rootPIBad:
		// Status said OK but the payload never verified.
		return 0, ring.ErrIntegrity, overridden
	case lastAborted:
		return 0, ErrReset, false
	case lastBusy:
		// Admission control rejected every attempt: surface the busy status
		// for the caller's StatusError map (ring.ErrBusy, retryable).
		return ring.StatusBusy, nil, false
	default:
		return 0, ErrTimeout, false
	}
}

// completionOK decides whether a delivered completion ends the submission:
// integrity statuses and PI payload mismatches are resubmitted like
// timeouts, everything else (including other error statuses, which the
// caller maps through StatusError) is final.
func (qp *QueuePair) completionOK(op uint32, w *qpWaiter, count uint32, bufAddr int64) bool {
	if w.status == ring.StatusIntegrityError {
		qp.PIWriteErrors++
		return false
	}
	if qp.cfg.PIBlock > 0 && ring.OpCode(op) == ring.OpRead && w.status == ring.StatusOK {
		if g, err := qp.piGuard(count, bufAddr); err == nil && g != w.guard {
			qp.PIMismatches++
			return false
		}
	}
	return true
}

// OnInterrupt drains new completion entries and wakes their submitters. It
// runs in engine (interrupt) context and stops at the first slot that does
// not hold the next sequence number.
func (qp *QueuePair) OnInterrupt() { qp.scan(1) }

// scan delivers completion entries in sequence order for as long as one of
// the ahead slots past the last delivered entry holds the sequence number
// that belongs there, and reports how many it delivered. Finding it beyond
// the first slot means the entries before it were lost; they are counted as
// gaps and skipped.
func (qp *QueuePair) scan(ahead uint32) (delivered int64) {
	entry := make([]byte, ring.CplBytes)
next:
	for {
		for k := uint32(1); k <= ahead; k++ {
			if err := qp.mem.Read(ring.CplSlot(qp.cplBase, qp.lastSeq+k, qp.entries), entry); err != nil {
				return delivered
			}
			id, status, seq, guard := ring.DecodeCompletionPI(entry)
			if seq != qp.lastSeq+k {
				continue
			}
			qp.SeqGaps += int64(k - 1)
			qp.lastSeq = seq
			delivered++
			qp.deliver(id, status, guard)
			continue next
		}
		return delivered
	}
}

// deliver routes one completion to its waiter; a completion whose id has no
// waiter (duplicate after a resubmit, or stale after a reset) is counted
// instead of silently matching nothing.
func (qp *QueuePair) deliver(id, status, guard uint32) {
	if w, ok := qp.waiters[id]; ok {
		delete(qp.waiters, id)
		w.status = status
		w.guard = guard
		w.sig.Fire()
		return
	}
	qp.StaleCompletions++
}

// pollRing scans the completion ring for entries the interrupt path never
// delivered. Unlike OnInterrupt it tolerates sequence gaps: a gap means a
// completion DMA write was lost on the wire, and skipping it is the only way
// the ring can make progress again. Only the timeout path pays this scan.
func (qp *QueuePair) pollRing() { qp.PolledCompletions += qp.scan(qp.entries) }

// Recover re-arms the queue pair after a function-level reset: it resets the
// ring cursors, zeroes and re-programs both rings, and aborts every parked
// submitter (each then resubmits into the fresh ring or surfaces ErrReset).
// Call only after the device reports the function drained (RegReset reads 0).
func (qp *QueuePair) Recover(p *sim.Proc) error {
	qp.Resets++
	qp.prod, qp.lastSeq = 0, 0
	if err := qp.mem.Zero(qp.ringBase, int64(qp.entries)*ring.DescBytes); err != nil {
		return err
	}
	if err := qp.mem.Zero(qp.cplBase, int64(qp.entries)*ring.CplBytes); err != nil {
		return err
	}
	if err := qp.program(p); err != nil {
		return err
	}
	if qp.shadowBase != 0 {
		// The FLR cleared the device's shadow binding; re-zero and re-arm,
		// or every post-reset Submit would skip doorbells the device no
		// longer follows.
		if err := qp.ArmShadow(p); err != nil {
			return err
		}
	}
	// The FLR also cleared the deadline register; re-arm it.
	if err := qp.armDeadline(p); err != nil {
		return err
	}
	qp.abortWaiters()
	return nil
}

// abortWaiters wakes every parked submitter as aborted, in sorted-id order —
// map iteration order must not leak into the event schedule, or seeded runs
// stop replaying.
func (qp *QueuePair) abortWaiters() {
	ids := make([]uint32, 0, len(qp.waiters))
	for id := range qp.waiters {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := qp.waiters[id]
		delete(qp.waiters, id)
		w.aborted = true
		w.sig.Fire()
	}
}

// release ends a closed queue pair once the device is done with its memory:
// every parked submitter fails with ErrDetached, and the rings and the
// shadow block go back to host memory.
func (qp *QueuePair) release() {
	qp.abortWaiters()
	free(qp.mem, qp.ringBase, qp.cplBase, qp.shadowBase)
	qp.ringBase, qp.cplBase, qp.shadowBase = 0, 0, 0
}
