package core

import (
	"encoding/binary"

	"nesc/internal/blockdev"
	"nesc/internal/extent"
	"nesc/internal/fault"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// The controller pipeline: descriptor fetchers (one per function), the
// round-robin VF multiplexer, the translation unit's walkers, and the
// data-transfer unit channels. Each stage is a process connected to the next
// by a bounded queue, so a congested stage exerts backpressure upstream —
// except the PF's out-of-band path, which bypasses translation entirely.

// fetchLoop services a function's doorbells: it round-robins across the
// function's queue pairs, DMAs new request descriptors from the chosen
// queue's submission ring in host memory, validates them, and hands them to the VF multiplexer
// (or, for the PF, splits them straight into the OOB queue). This intra-
// function scheduler sits underneath the inter-VF deficit-round-robin
// multiplexer: queues of one function share that function's fetch bandwidth
// fairly, while VFs compete with each other exactly as before. After an
// MMIO-announced batch drains, a queue armed with a shadow-doorbell block
// keeps following the guest's shadow writes until the ring is truly idle.
func (f *Function) fetchLoop(p *sim.Proc) {
	desc := make([]byte, ring.DescBytes)
	for {
		f.fetchW.Acquire(p)
		// Pick the next queue with a pending doorbell, round-robin. Slots
		// with no queue pair leased are skipped.
		var q *fnQueue
		var prod uint32
		for scanned := 0; scanned < len(f.queues); scanned++ {
			cand := f.queues[f.fetchRR]
			f.fetchRR = (f.fetchRR + 1) % len(f.queues)
			if cand == nil {
				continue
			}
			if v, ok := cand.doorbells.TryPop(); ok {
				q, prod = cand, v
				break
			}
		}
		if q == nil {
			continue // doorbell drained by a reset; the semaphore over-counts
		}
		// A shadow chase may have consumed past this doorbell since it rang.
		if ring.DoorbellValid(prod, q.consumed, q.ringSize) {
			f.drainTo(p, q, prod, desc)
		}
		if q.shadowBase != 0 {
			f.shadowFollow(p, q, desc)
		}
	}
}

// drainTo fetches, decodes, and dispatches descriptors until q's consumer
// index reaches prod (or the ring is torn down / a fetch DMA fails).
func (f *Function) drainTo(p *sim.Proc, q *fnQueue, prod uint32, desc []byte) {
	c := f.c
	for q.consumed != prod {
		if q.ringSize == 0 {
			break // ring torn down after the doorbell was accepted
		}
		tFetch := p.Now()
		if err := c.Fab.DMAReadP(p, c.pf.id, ring.DescSlot(q.ringBase, q.consumed, q.ringSize), desc); err != nil {
			// Descriptor fetch failed: the doorbell's remaining requests
			// are lost. The driver's completion timeout recovers them.
			f.FetchDrops++
			c.Report(Event{Kind: EvDrop, Fn: f.idx, Arg: uint64(prod)})
			break
		}
		p.Sleep(c.P.DescriptorFetchTime)
		q.consumed++
		rawOp, id, lba, count, buf, guard := ring.DecodeDescriptorPI(desc)
		op := ring.OpCode(rawOp)
		req := &Request{fn: f, q: q, Op: op, ID: id, LBA: lba, Count: count, Buf: buf, left: int(count), epoch: f.resetEpoch, qGen: q.gen,
			pi: rawOp&ring.OpFlagPI != 0, piGuard: guard, t0: tFetch}
		c.reqSeq++
		req.ReqID = c.reqSeq
		if q.deadline > 0 {
			req.deadline = tFetch + q.deadline
		}
		c.stage(req, nil, StFetch, p.Now(), uint64(id))
		f.Reqs++
		q.Reqs++
		f.Blocks += int64(count)
		f.inflight++
		switch {
		case !f.enabled:
			req.status = ring.StatusDisabled
			c.sendCompletion(p, req)
		case lba > f.sizeBlocks || uint64(count) > f.sizeBlocks-lba || (op != ring.OpRead && op != ring.OpWrite && op != ring.OpVerify):
			// The range test must not wrap: lba is the guest's 64 bits, and
			// lba+count computed in uint64 lets LBA 2^64-1 back in at block 0.
			req.status = ring.StatusOutOfRange
			c.sendCompletion(p, req)
		case count == 0:
			c.sendCompletion(p, req)
		case f.idx == 0:
			// PF out-of-band channel: pLBAs, no translation. Verify
			// chunks take the scavenger-priority scrub queue instead of
			// the OOB fast path.
			bs := int64(c.P.BlockSize)
			for i := uint32(0); i < count; i++ {
				ch := &chunk{req: req, idx: int(i), lba: lba + uint64(i), buf: buf + int64(i)*bs}
				if op == ring.OpVerify {
					c.scrubQ.Push(p, ch)
				} else {
					c.oobQ.Push(p, ch)
				}
				c.dtuW.Release()
			}
		case c.admitBusy(f, req):
			// Admission gate: the function is over its inflight budget, or
			// the backlog estimate says this deadline-armed request cannot
			// finish in time. Fail fast with the retryable busy status —
			// nothing was executed, the driver backs off and resubmits.
			req.status = ring.StatusBusy
			f.AdmitRejects++
			c.Report(Event{Kind: EvAdmitReject, Fn: f.idx, Req: req})
			c.sendCompletion(p, req)
		default:
			req.admitted = true
			f.pendingChunks += int64(count)
			f.reqQ.Push(p, req)
			c.mux.note(f)
			c.muxW.Release()
		}
	}
}

// admitBusy is the per-VF admission gate, consulted at descriptor fetch.
// Two triggers, both off by default: an AdmitInflight budget on fetched-but-
// uncompleted requests, and — for deadline-armed requests — a feasibility
// estimate (pending chunks × the DTU's chunk-service EWMA) showing the
// request cannot complete inside its budget. Pure arithmetic on state the
// fetch path already holds; with both knobs off it is two false branches.
func (c *Controller) admitBusy(f *Function, req *Request) bool {
	// f.inflight already counts this request (incremented at fetch), so a
	// budget of N admits N concurrently.
	if c.P.AdmitInflight > 0 && f.inflight > int64(c.P.AdmitInflight) {
		return true
	}
	if req.deadline > 0 && c.chunkEWMA > 0 {
		// Feasibility: could this request *start* before its deadline, given
		// the function's queued work and the smoothed chunk service time?
		// Only work ahead of the request counts — charging its own chunks
		// would wedge the gate after a slow episode (an empty queue could
		// never refresh the inflated EWMA, because refreshing it requires
		// admitting something). Requests that slip past this estimate are
		// still caught by the per-stage deadline checks downstream.
		est := sim.Time(f.pendingChunks) * c.chunkEWMA
		if req.t0+est > req.deadline {
			return true
		}
	}
	return false
}

// retireStatus is the check every stage makes before spending work on a
// request: StatusOK means proceed, anything else is the status to retire
// with. A request fetched before a function-level reset is aborted. A
// deadline-armed request whose budget ran out waiting for the stage is
// failed fast with the retryable busy status — the submitter has moved on —
// which counts the chunks abandoned and tells the scoreboard which stage
// gave up.
func (c *Controller) retireStatus(r *Request, now sim.Time, stage string, chunks int) uint32 {
	switch {
	case r.epoch != r.fn.resetEpoch:
		return ring.StatusAborted
	case r.deadline > 0 && now >= r.deadline:
		c.DeadlineExpirations += int64(chunks)
		c.Report(Event{Kind: EvDeadline, Fn: r.fn.idx, Req: r, Note: stage})
		return ring.StatusBusy
	}
	return ring.StatusOK
}

// shadowFollow is the device half of shadow-doorbell batching. While the
// device was fetching, the guest may have published newer producer indices
// only in the queue's SHADOW word, skipping the doorbell MMIO. Before
// parking, the device chases those: it re-reads SHADOW and drains anything
// new; once caught up it publishes its consumed index in the EVENT word —
// the guest's cue that the next submission must ring — and then re-reads
// SHADOW one final time, which closes the race with a guest that read a
// stale EVENT and skipped its ring just as the device was leaving. Every
// step re-validates the lease generation and ring state so an FLR or a
// pool return mid-dance simply ends the chase.
func (f *Function) shadowFollow(p *sim.Proc, q *fnQueue, desc []byte) {
	gen := q.gen
	w := make([]byte, 4)
	for {
		drained, live := f.shadowDrain(p, q, gen, w, desc)
		if !live {
			return
		}
		if drained {
			continue
		}
		// Caught up: publish how far we got, then look one last time.
		binary.BigEndian.PutUint32(w, q.consumed)
		if err := f.c.Fab.DMAWriteP(p, f.c.pf.id, q.shadowBase+ring.ShadowOffEvent, w); err != nil {
			return
		}
		if drained, _ := f.shadowDrain(p, q, gen, w, desc); !drained {
			return
		}
	}
}

// shadowDrain is one look at the queue's SHADOW word (read into w): drained
// reports that it named a valid new producer index and the ring was drained
// up to it; live is false when the chase is over — the lease generation
// moved on from gen, the ring or its shadow block was torn down, or the DMA
// read failed.
func (f *Function) shadowDrain(p *sim.Proc, q *fnQueue, gen uint32, w, desc []byte) (drained, live bool) {
	c := f.c
	if q.gen != gen || q.ringSize == 0 || q.shadowBase == 0 {
		return false, false
	}
	if err := c.Fab.DMAReadP(p, c.pf.id, q.shadowBase+ring.ShadowOffProd, w); err != nil {
		return false, false
	}
	prod := binary.BigEndian.Uint32(w)
	// Re-checked after the read: a block disarmed meanwhile gets no EVENT.
	if q.gen != gen || q.ringSize == 0 || q.shadowBase == 0 {
		return false, false
	}
	if prod == q.consumed || !ring.DoorbellValid(prod, q.consumed, q.ringSize) {
		return false, true
	}
	c.ShadowBatches++
	f.drainTo(p, q, prod, desc)
	return true, true
}

// muxLoop is the VF multiplexer: it dequeues client requests round-robin
// "to prevent client starvation" (paper §V-A), extended with per-VF weights
// (deficit round robin, drr.go) for the QoS policy of §IV-D.
func (c *Controller) muxLoop(p *sim.Proc) {
	for {
		c.muxW.Acquire(p)
		f := c.mux.pick()
		if f == nil {
			continue // accounting mismatch cannot occur; defensive
		}
		req, _ := f.reqQ.TryPop()
		if f.reqQ.Len() == 0 {
			c.mux.idle(f)
		}
		if st := c.retireStatus(req, p.Now(), "mux", req.left); st != ring.StatusOK {
			// Dead before splitting: retire the request whole.
			if st == ring.StatusAborted {
				c.AbortedChunks += int64(req.left)
			}
			req.status = st
			c.sendCompletion(p, req)
			continue
		}
		bs := int64(c.P.BlockSize)
		for i := uint32(0); i < req.Count; i++ {
			p.Sleep(c.P.MuxChunkTime)
			c.vlbaQ.Push(p, &chunk{req: req, idx: int(i), lba: req.LBA + uint64(i), buf: req.Buf + int64(i)*bs, mark: p.Now()})
		}
	}
}

// walkerLoop is one translation-unit walker. It first consults the BTLB; on
// a miss it walks the VF's extent tree with DMA reads from host memory. A
// translation that cannot complete (hole on a write, pruned subtree) latches
// the missing range — from its block to the request's end — in the miss
// registers, interrupts the hypervisor through the PF, and parks until
// RewalkTree releases it (paper Fig. 5).
func (c *Controller) walkerLoop(p *sim.Proc) {
	nodeImg := make([]byte, extent.NodeBytes(extent.DefaultFanout))
	for {
		ch := c.vlbaQ.Pop(p)
		f := ch.req.fn
		if st := c.retireStatus(ch.req, p.Now(), "walker", 1); st != ring.StatusOK {
			c.completeChunk(p, ch, st)
			continue
		}
		c.stage(ch.req, ch, StQueue, p.Now(), 0)
		p.Sleep(c.P.BTLBHitTime)
		if plba, prot, ok := c.btlb.lookup(f.idx, ch.lba); ok && !(prot && ch.req.Op == ring.OpWrite) {
			c.BTLBStats.Hit()
			ch.how = TransHit
			ch.lba = plba
			c.pushPLBA(p, f, ch)
			continue
		}
		// A write hitting a cached protected extent cannot use the
		// translation: it falls through to the walk, which re-finds the
		// protected mapping and raises the CoW fault.
		c.BTLBStats.Miss()
		ch.how = TransWalk

	walk:
		for {
			res, err := c.walkTree(p, f, ch.lba, nodeImg)
			if err != nil {
				c.completeChunk(p, ch, ring.StatusDMAFault)
				break walk
			}
			if ch.req.epoch != f.resetEpoch {
				// Reset or disabled while the walk was out: the tree it read
				// may be another tenant's by now.
				c.completeChunk(p, ch, ring.StatusAborted)
				break walk
			}
			reason, miss := MissFor(res, ch.req.Op == ring.OpWrite, f.fetchBacked)
			switch {
			case !miss && res.Mapped:
				c.btlb.insert(f.idx, res.Extent)
				ch.lba = res.PLBA
				c.pushPLBA(p, f, ch)
				break walk
			case !miss:
				// POSIX: holes read as zeros (paper Fig. 5a "DMA zero
				// blocks"), and a verify has no media blocks to check.
				ch.zero = true
				c.pushPLBA(p, f, ch)
				break walk
			default:
				// The hypervisor must allocate/regenerate/unshare/materialize
				// mappings.
				c.Misses++
				ch.how = TransMiss
				if reason == ring.MissReasonCoW {
					c.CowFaults++
					ch.how = TransCow
				}
				if !f.missPending {
					f.missPending = true
					f.missGen++
					// Latch the rest of the request, which the fetch check
					// held inside the export: one service covers every chunk
					// still to come, and the host calls skip what is mapped.
					f.missAddr = ch.lba
					f.missSize = uint32(ch.req.LBA + uint64(ch.req.Count) - ch.lba)
					f.missIsWrite = ch.req.Op == ring.OpWrite
					f.missReason = reason
					f.rewalk = sim.NewSignal(c.Eng)
					c.Report(Event{Kind: EvMiss, Fn: f.idx, LBA: ch.lba, Arg: uint64(f.missReason)})
					c.Fab.RaiseMSI(c.pf.id, ring.VecMiss)
					if c.P.MissResendInterval > 0 {
						c.scheduleMissResend(f, f.missGen)
					}
				}
				sig := f.rewalk
				sig.Await(p)
				c.Report(Event{Kind: EvRewalk, Fn: f.idx, LBA: ch.lba, Arg: uint64(f.rewalkVerdict)})
				if ch.req.epoch != f.resetEpoch {
					c.completeChunk(p, ch, ring.StatusAborted)
					break walk
				}
				if f.rewalkVerdict == ring.RewalkFail {
					c.completeChunk(p, ch, ring.StatusNoSpace)
					break walk
				}
				continue walk // retry against the rebuilt tree
			}
		}
	}
}

// MissFor is the one rule for when a walk that ended in res must miss, and
// with which MissReason: a write needs its block mapped and unprotected; any
// other access takes a mapping as it is and a hole as zeros, unless the VF is
// fetch-backed, where a hole is content not yet materialized. A pruned subtree
// always misses. The hypervisor judges its own service by the same rule.
func MissFor(res extent.Resolution, write, fetchBacked bool) (reason uint32, miss bool) {
	switch {
	case res.Mapped && res.Protected && write:
		return ring.MissReasonCoW, true
	case res.Mapped:
		return 0, false
	case res.Hole && fetchBacked:
		return ring.MissReasonFetch, true
	case res.Hole && !write:
		return 0, false
	}
	return ring.MissReasonTranslate, true
}

// walkTree performs one tree walk using device DMA: extent.Lookup's walk
// (both take extent.Resolution.Step per node) with the cost model applied.
func (c *Controller) walkTree(p *sim.Proc, f *Function, vlba uint64, nodeImg []byte) (extent.Resolution, error) {
	var res extent.Resolution
	addr := f.treeRoot
	for {
		if err := c.Fab.DMAReadP(p, c.pf.id, addr, nodeImg); err != nil {
			return res, err
		}
		c.WalkNodeReads++
		p.Sleep(c.P.WalkParseTime)
		next, err := res.Step(nodeImg, vlba)
		if err != nil || next == 0 {
			return res, err
		}
		addr = next
	}
}

// pushPLBA hands a translated chunk to the data-transfer stage's per-VF
// queue.
func (c *Controller) pushPLBA(p *sim.Proc, f *Function, ch *chunk) {
	c.stage(ch.req, ch, StTranslate, p.Now(), uint64(ch.req.ID))
	if ch.req.Op == ring.OpVerify {
		c.scrubQ.Push(p, ch)
	} else {
		f.plbaQ.Push(p, ch)
		c.dtu.note(f)
	}
	c.dtuW.Release()
}

// dtuPick selects the next chunk for a DMA channel: OOB (PF) chunks win
// absolute priority; VF chunks are scheduled with deficit round robin
// weighted by each VF's QoS weight (paper §IV-D: the QoS policy lives in
// the DMA engine, drr.go).
func (c *Controller) dtuPick() (*chunk, bool) {
	if ch, ok := c.oobQ.TryPop(); ok {
		return ch, true
	}
	if f := c.dtu.pick(); f != nil {
		ch, _ := f.plbaQ.TryPop()
		if f.plbaQ.Len() == 0 {
			c.dtu.idle(f)
		}
		return ch, true
	}
	// Scrub traffic is served only when every foreground queue is empty.
	if ch, ok := c.scrubQ.TryPop(); ok {
		return ch, true
	}
	return nil, false
}

// dtuLoop is one data-transfer unit channel.
func (c *Controller) dtuLoop(p *sim.Proc) {
	bs := c.P.BlockSize
	buf := make([]byte, bs)
	for {
		c.dtuW.Acquire(p)
		ch, ok := c.dtuPick()
		if !ok {
			continue // defensive; semaphore and queues are kept in lockstep
		}
		if st := c.retireStatus(ch.req, p.Now(), "dtu", 1); st != ring.StatusOK {
			// An expired chunk skips the medium entirely. Any sibling chunks
			// that did land are harmless — busy completions are never
			// acknowledged, and the retried write rewrites every block.
			c.completeChunk(p, ch, st)
			continue
		}
		tSvc := p.Now()
		c.stage(ch.req, ch, StDTUWait, tSvc, 0)
		p.Sleep(c.P.DTUChunkOverhead)
		status := uint32(ring.StatusOK)
		switch {
		case ch.req.Op == ring.OpVerify:
			c.ScrubChunks++
			if !ch.zero { // a hole has no media blocks to check
				status = c.verifyChunk(p, ch, buf)
			}
		case ch.req.Op == ring.OpRead && ch.zero:
			if ch.req.pi {
				ch.req.piAccum ^= c.zeroCRC
			}
			if err := c.Fab.DMAZeroP(p, ch.req.fn.id, ch.buf, int64(bs)); err != nil {
				status = ring.StatusDMAFault
			}
		case ch.req.Op == ring.OpRead:
			if st := c.mediumOp(p, ch, buf, false); st != ring.StatusOK {
				status = st
			} else {
				if ch.req.pi {
					ch.req.piAccum ^= ring.BlockCRC(buf)
				}
				// A DMA flip here corrupts the payload after the device
				// computed its guard — exactly what end-to-end PI catches.
				c.maybeCorruptDMA(ch, buf)
				if err := c.Fab.DMAWriteP(p, ch.req.fn.id, ch.buf, buf); err != nil {
					status = ring.StatusDMAFault
				}
			}
		default: // OpWrite
			if err := c.Fab.DMAReadP(p, ch.req.fn.id, ch.buf, buf); err != nil {
				status = ring.StatusDMAFault
			} else {
				// A DMA flip here lands corrupted data on the medium under a
				// matching medium guard; only the request-level PI check at
				// completion time can see it.
				c.maybeCorruptDMA(ch, buf)
				if ch.req.pi {
					ch.req.piAccum ^= ring.BlockCRC(buf)
				}
				if st := c.mediumOp(p, ch, buf, true); st != ring.StatusOK {
					status = st
				}
			}
		}
		// Feed the chunk-service EWMA (integer arithmetic on timestamps the
		// loop already took; alpha = 1/8). The admission gate multiplies it
		// by a function's backlog for deadline feasibility.
		if svc := p.Now() - tSvc; c.chunkEWMA == 0 {
			c.chunkEWMA = svc
		} else {
			c.chunkEWMA += (svc - c.chunkEWMA) / 8
		}
		c.ChunksDone++
		st := StTransfer
		if ch.req.Op == ring.OpVerify {
			st = StVerify
		}
		c.stage(ch.req, ch, st, p.Now(), uint64(status))
		c.completeChunk(p, ch, status)
	}
}

// mediumOp performs one chunk's medium access, retrying transient medium
// errors — and guard-tag mismatches, which a re-read of a transiently
// flipped sector heals — up to MediumRetryMax with a per-retry latency cost
// before latching StatusMediumError or StatusIntegrityError. A non-medium
// failure (range/programming) maps to StatusOutOfRange as before.
func (c *Controller) mediumOp(p *sim.Proc, ch *chunk, buf []byte, write bool) uint32 {
	f := ch.req.fn
	sawIntegrity := false
	for attempt := 0; ; attempt++ {
		var err error
		if write {
			err = c.Medium.WriteP(p, int64(ch.lba), buf)
		} else {
			err = c.Medium.ReadP(p, int64(ch.lba), buf)
		}
		if err == nil {
			if sawIntegrity {
				// An earlier attempt failed its guard check and this re-read
				// came back clean: the flip was transient.
				f.IntegrityRepairs++
			}
			return ring.StatusOK
		}
		integrity := blockdev.IsIntegrityError(err)
		if !integrity && !blockdev.IsMediumError(err) {
			return ring.StatusOutOfRange
		}
		sawIntegrity = sawIntegrity || integrity
		c.Report(Event{Kind: EvFault, Fn: f.idx, LBA: ch.lba, Arg: uint64(ch.req.ID)})
		if attempt >= MediumRetryMax {
			if integrity {
				f.IntegrityErrors++
				return ring.StatusIntegrityError
			}
			f.MediumErrors++
			return ring.StatusMediumError
		}
		f.MediumRetries++
		c.Report(Event{Kind: EvRetry, Fn: f.idx, Req: ch.req})
		p.Sleep(c.P.MediumRetryDelay)
	}
}

// verifyChunk is the DTU's scrub path: read the block with guard checking
// and, when the fast-path read keeps coming back bad (unreadable latent
// sector or latched corruption), reconstruct the true contents through the
// medium's slow recovery read and rewrite them — which clears the underlying
// defect. Foreground traffic never waits on this: verify chunks are only
// picked when every other queue is empty.
func (c *Controller) verifyChunk(p *sim.Proc, ch *chunk, buf []byte) uint32 {
	f := ch.req.fn
	err := c.Medium.ReadP(p, int64(ch.lba), buf)
	if err == nil {
		return ring.StatusOK
	}
	if !blockdev.IsMediumError(err) && !blockdev.IsIntegrityError(err) {
		return ring.StatusOutOfRange
	}
	c.Report(Event{Kind: EvFault, Fn: f.idx, LBA: ch.lba, Arg: uint64(ch.req.ID)})
	if e := c.Medium.RecoverP(p, int64(ch.lba), buf); e != nil {
		return ring.StatusOutOfRange
	}
	status := c.mediumOp(p, ch, buf, true)
	if status == ring.StatusOK {
		f.IntegrityRepairs++
	}
	return status
}

// maybeCorruptDMA consults the DMACorrupt fault site and, when it fires,
// flips one payload bit in flight — silently, exactly like a bad cable or a
// bridge with flaky SRAM would.
func (c *Controller) maybeCorruptDMA(ch *chunk, buf []byte) {
	if c.Inj.Decide(fault.DMACorrupt).Fault {
		fault.Flip(buf, uint64(ch.lba)^(uint64(ch.req.ID)<<20))
	}
}

// scheduleMissResend re-raises the miss MSI while f's miss stays latched —
// the recovery path for a miss interrupt dropped on the wire. The generation
// guard makes a stale timer (miss already serviced, possibly re-latched) a
// no-op.
func (c *Controller) scheduleMissResend(f *Function, gen uint64) {
	c.Eng.After(c.P.MissResendInterval, func() {
		if !f.missPending || f.missGen != gen {
			return
		}
		c.MissResends++
		c.Fab.RaiseMSI(c.pf.id, ring.VecMiss)
		c.scheduleMissResend(f, gen)
	})
}

// completeChunk retires one chunk; the final chunk of a request triggers the
// completion write and interrupt.
func (c *Controller) completeChunk(p *sim.Proc, ch *chunk, status uint32) {
	r := ch.req
	switch status {
	case ring.StatusDMAFault:
		r.fn.DMAFaults++
	case ring.StatusAborted:
		c.AbortedChunks++
	}
	if status != ring.StatusOK && r.status == ring.StatusOK {
		r.status = status
	}
	r.left--
	if r.left == 0 {
		c.sendCompletion(p, r)
	}
}

// sendCompletion DMA-writes the completion entry into the originating
// queue's completion ring and raises that queue's completion MSI vector.
func (c *Controller) sendCompletion(p *sim.Proc, r *Request) {
	f := r.fn
	q := r.q
	c.ReqsDone++
	if f.inflight > 0 {
		f.inflight--
	}
	if r.admitted {
		f.pendingChunks -= int64(r.Count)
	}
	if r.pi && r.Op == ring.OpWrite && r.status == ring.StatusOK && r.piAccum != r.piGuard {
		// The device's accumulated guard disagrees with what the submitter
		// computed over the source buffer: the payload was corrupted between
		// the submitter's memory and the medium (e.g. a DMA flip). The data
		// is already on the medium under a self-consistent medium guard, so
		// this end-to-end check is the only detector; fail the request so
		// the driver rewrites.
		r.status = ring.StatusIntegrityError
		f.IntegrityErrors++
	}
	if c.obs != nil {
		c.obs.Finish(r, p.Now())
	}
	if q == nil || q.cplBase == 0 || q.ringSize == 0 {
		return // no completion ring programmed (management-only function)
	}
	if q.f != f || q.gen != r.qGen {
		// The queue pair was returned to the pool (and possibly re-leased,
		// even to a different function) while this request was in flight: its
		// completion ring now belongs to someone else. Drop the completion —
		// the old tenant is gone and the new one must never see foreign DMA.
		return
	}
	q.cplSeq++
	var guard uint32
	if r.pi && r.Op == ring.OpRead && r.status == ring.StatusOK {
		guard = r.piAccum
	}
	entry := make([]byte, ring.CplBytes)
	ring.EncodeCompletionPI(entry, r.ID, r.status, q.cplSeq, guard)
	if err := c.Fab.DMAWriteP(p, c.pf.id, ring.CplSlot(q.cplBase, q.cplSeq, q.ringSize), entry); err != nil {
		// The completion entry never reached host memory: the guest will
		// only learn of this request through its timeout path.
		f.CplDrops++
		c.Report(Event{Kind: EvDrop, Fn: f.idx, LBA: r.LBA, Arg: uint64(r.ID)})
		return
	}
	c.Fab.RaiseMSI(f.id, ring.CompletionVector(q.idx))
}
