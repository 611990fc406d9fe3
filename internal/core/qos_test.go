package core

import (
	"slices"
	"testing"
	"unsafe"

	"nesc/internal/extent"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

func TestWeightRegisterClamping(t *testing.T) {
	r := newRig(t, smallParams())
	done := false
	r.eng.Go("hyp", func(p *sim.Proc) {
		mgmt := r.bar + r.ctl.MgmtPageOffset()
		vf := r.ctl.VF(0)
		if vf.weight != 1 {
			t.Errorf("default weight = %d", vf.weight)
		}
		r.mmioW(p, mgmt+ring.MgmtWeight, 8)
		// Posted write: the read round trip orders behind it.
		if got := r.mmioR(p, mgmt+ring.MgmtWeight); got != 8 {
			t.Errorf("weight readback = %d", got)
		}
		// Out-of-range values are ignored.
		r.mmioW(p, mgmt+ring.MgmtWeight, 0)
		r.mmioW(p, mgmt+ring.MgmtWeight, 1000)
		if got := r.mmioR(p, mgmt+ring.MgmtWeight); got != 8 {
			t.Errorf("weight after invalid writes = %d", got)
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
}

// fillPLBAQueues stuffs n chunks into each of the first two VFs' pLBA
// queues and joins them to the DTU's active list (unit-level access; QoS
// binds only under backlog, which queue-depth-1 clients never create).
func fillPLBAQueues(c *Controller, n int) {
	for i := 0; i < 2; i++ {
		f := c.VF(i)
		req := &Request{fn: f, Op: ring.OpWrite, left: n}
		for k := 0; k < n; k++ {
			if !f.plbaQ.TryPush(&chunk{req: req, lba: uint64(k)}) {
				panic("queue full in test setup")
			}
		}
		c.dtu.note(f)
	}
}

func TestDTUPickWeightedScheduling(t *testing.T) {
	r := newRig(t, smallParams())
	c := r.ctl
	c.VF(0).weight = 6
	c.VF(1).weight = 1
	fillPLBAQueues(c, plbaQueueDepth)
	var picks [2]int
	for i := 0; i < 56; i++ {
		ch, ok := c.dtuPick()
		if !ok {
			t.Fatalf("pick %d failed with backlog present", i)
		}
		picks[ch.req.fn.idx-1]++
	}
	// 56 picks at 6:1 → 48:8.
	if picks[0] != 48 || picks[1] != 8 {
		t.Fatalf("picks = %v, want [48 8]", picks)
	}
	// Work conservation: once VF0 drains, VF1 gets everything.
	for c.VF(0).plbaQ.Len() > 0 {
		c.dtuPick()
	}
	before := c.VF(1).plbaQ.Len()
	if before == 0 {
		t.Fatal("VF1 queue already empty")
	}
	if ch, ok := c.dtuPick(); !ok || ch.req.fn.idx != 2 {
		t.Fatal("scheduler not work-conserving after VF0 drained")
	}
}

func TestDTUPickEqualWeightsAlternate(t *testing.T) {
	r := newRig(t, smallParams())
	c := r.ctl
	fillPLBAQueues(c, 32)
	var picks [2]int
	for i := 0; i < 64; i++ {
		ch, ok := c.dtuPick()
		if !ok {
			t.Fatalf("pick %d failed", i)
		}
		picks[ch.req.fn.idx-1]++
	}
	if picks[0] != 32 || picks[1] != 32 {
		t.Fatalf("equal weights picked %v", picks)
	}
}

func TestDTUPickOOBPriority(t *testing.T) {
	r := newRig(t, smallParams())
	c := r.ctl
	fillPLBAQueues(c, 4)
	pfReq := &Request{fn: c.pf, Op: ring.OpRead, left: 1}
	c.oobQ.TryPush(&chunk{req: pfReq})
	ch, ok := c.dtuPick()
	if !ok || ch.req.fn != c.pf {
		t.Fatal("OOB chunk did not win priority")
	}
}

func TestBreakdownCollection(t *testing.T) {
	rec := &recorder{}
	r := newRigWith(t, smallParams(), rec)
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 256}})
	buf := r.mem.MustAlloc(4096, 64)
	done := false
	r.eng.Go("guest", func(pr *sim.Proc) {
		r.setVF(pr, 0, tr.Root(), 256)
		d := r.openFunction(pr, 1)
		for i := 0; i < 8; i++ {
			if st := d.io(pr, ring.OpWrite, uint64(i*4), 4, buf); st != ring.StatusOK {
				t.Errorf("status %d", st)
			}
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
	// 8 requests of 4 chunks each: every chunk passes every stage once.
	for st, want := range map[StageID]int{StFetch: 8, StQueue: 32, StTranslate: 32, StDTUWait: 32, StTransfer: 32} {
		if n := len(rec.steps(1, st)); n != want {
			t.Errorf("%s reported %d times, want %d", stageNames[st], n, want)
		}
	}
	finishes := 0
	for _, c := range rec.calls {
		if c.step == nil && c.ev == nil && c.r.Fn() == 1 {
			finishes++
		}
	}
	if finishes != 8 {
		t.Errorf("%d requests finished, want 8", finishes)
	}
	var transfer sim.Time
	for _, s := range rec.steps(1, StTransfer) {
		transfer += s.To - s.From
	}
	if transfer <= 0 {
		t.Fatal("transfer stage recorded no time")
	}
	// With no observer a request carries no record at all.
	r2 := newRig(t, smallParams())
	req := &Request{fn: r2.ctl.pf, Op: ring.OpRead}
	r2.ctl.stage(req, nil, StFetch, 5, 0)
	if req.Tel != nil {
		t.Fatal("a record was opened with no observer attached")
	}
}

// countingObserver counts calls and keeps nothing.
type countingObserver struct{ n int }

func (o *countingObserver) Stage(*Request, Step)      { o.n++ }
func (o *countingObserver) Finish(*Request, sim.Time) { o.n++ }
func (o *countingObserver) Event(Event)               { o.n++ }

// TestTelemetryOffStaysCheap pins what the observer seam must not leak into
// the request path: the size of a Request (208 bytes before the per-request
// telemetry state moved behind one slot; the slot keeps it in the 128-byte
// size class) and of a chunk, and zero allocations per reported step.
func TestTelemetryOffStaysCheap(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 128 {
		t.Errorf("Request is %d bytes, ceiling 128", got)
	}
	if got := unsafe.Sizeof(chunk{}); got > 64 {
		t.Errorf("chunk is %d bytes, ceiling 64", got)
	}
	obs := &countingObserver{}
	r := newRigWith(t, smallParams(), obs)
	req := &Request{fn: r.ctl.pf, Op: ring.OpWrite, t0: 1}
	r.ctl.stage(req, nil, StFetch, 2, 0)
	ch := &chunk{req: req, mark: 2}
	now := sim.Time(2)
	if avg := testing.AllocsPerRun(1000, func() {
		now++
		r.ctl.stage(req, ch, StTransfer, now, 0)
	}); avg != 0 {
		t.Errorf("a reported step allocates %v times, want 0", avg)
	}
	if obs.n < 1000 {
		t.Errorf("the observer saw %d steps", obs.n)
	}
}

func TestTracerRecordsRequestLifecycle(t *testing.T) {
	rec := &recorder{}
	r := newRigWith(t, smallParams(), rec)
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 16}})
	buf := r.mem.MustAlloc(4096, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 16)
		d := r.openFunction(p, 1)
		rec.calls = nil
		if st := d.io(p, ring.OpWrite, 0, 4, buf); st != ring.StatusOK {
			t.Errorf("status %d", st)
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
	reqs := rec.requests()
	if len(reqs) != 1 {
		t.Fatalf("%d requests fetched, want 1", len(reqs))
	}
	// Lifecycle: fetch, then translations/transfers, then completion last.
	kinds := rec.trail(reqs[0])
	if len(kinds) < 3 || kinds[0] != "fetch" || kinds[len(kinds)-1] != finished(ring.StatusOK) {
		t.Fatalf("lifecycle = %v", kinds)
	}
	for _, s := range []string{"translate#0/walk", "transfer#3"} {
		if !slices.Contains(kinds, s) {
			t.Fatalf("missing %s: %v", s, kinds)
		}
	}
	// Timestamps are monotone.
	for i := 1; i < len(rec.calls); i++ {
		if rec.calls[i].at < rec.calls[i-1].at {
			t.Fatal("observer calls out of order")
		}
	}
}
