package core

import (
	"testing"
	"unsafe"

	"nesc/internal/extent"
	"nesc/internal/metrics"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/trace"
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
	p := smallParams()
	p.PLBAQueueDepth = 256
	r := newRig(t, p)
	c := r.ctl
	c.VF(0).weight = 6
	c.VF(1).weight = 1
	fillPLBAQueues(c, 140)
	var picks [2]int
	for i := 0; i < 140; i++ {
		ch, ok := c.dtuPick()
		if !ok {
			t.Fatalf("pick %d failed with backlog present", i)
		}
		picks[ch.req.fn.idx-1]++
	}
	// 140 picks at 6:1 → 120:20.
	if picks[0] != 120 || picks[1] != 20 {
		t.Fatalf("picks = %v, want [120 20]", picks)
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
	p := smallParams()
	p.PLBAQueueDepth = 64
	r := newRig(t, p)
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
	reg := metrics.New()
	r := newRigWith(t, smallParams(), Sinks{Metrics: reg})
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
	hist := func(fam family) *metrics.Histogram {
		return reg.Histogram(fam.name, fam.help, metrics.VFQOp(1, 0, "write"))
	}
	translated := hist(famTransHit).Count() + hist(famTransWalk).Count()
	for name, n := range map[string]int64{
		"queue wait": hist(stages[stQueue].fam).Count(), "translate": translated,
		"dtu wait": hist(stages[stDTUWait].fam).Count(), "transfer": hist(stages[stTransfer].fam).Count(),
	} {
		if n != 32 {
			t.Errorf("%s histogram holds %d samples, want 32", name, n)
		}
	}
	if hist(stages[stFetch].fam).Count() != 8 || hist(famRequestNs).Count() != 8 {
		t.Errorf("fetch/request histograms hold %d/%d samples, want 8/8",
			hist(stages[stFetch].fam).Count(), hist(famRequestNs).Count())
	}
	if hist(stages[stTransfer].fam).Mean() <= 0 {
		t.Fatal("transfer stage recorded no time")
	}
	// Off by default: a request carries no telemetry record at all.
	r2 := newRig(t, smallParams())
	req := &Request{fn: r2.ctl.pf, Op: ring.OpRead}
	r2.ctl.stage(req, nil, stFetch, 5, 0)
	r2.ctl.finish(req, 9)
	if req.tel != nil {
		t.Fatal("a telemetry record was opened with no sink attached")
	}
}

// TestTelemetryOffStaysCheap pins what a later telemetry consumer must not
// leak into the off path: the size of a Request (208 bytes before the
// per-request state moved behind one pointer) and, with the registry
// attached, zero allocations per stage observation once the series exists.
func TestTelemetryOffStaysCheap(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 120 {
		t.Errorf("Request is %d bytes, ceiling 120", got)
	}
	r := newRigWith(t, smallParams(), Sinks{Metrics: metrics.New()})
	req := &Request{fn: r.ctl.pf, Op: ring.OpWrite, t0: 1}
	r.ctl.stage(req, nil, stFetch, 2, 0)
	ch := &chunk{req: req, mark: 2}
	now := sim.Time(2)
	if avg := testing.AllocsPerRun(1000, func() {
		now++
		r.ctl.stage(req, ch, stTransfer, now, 0)
	}); avg != 0 {
		t.Errorf("a stage observation allocates %v times, want 0", avg)
	}
}

func TestTracerRecordsRequestLifecycle(t *testing.T) {
	events := trace.NewRing(64)
	r := newRigWith(t, smallParams(), Sinks{Events: events})
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 16}})
	buf := r.mem.MustAlloc(4096, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 16)
		d := r.openFunction(p, 1)
		if st := d.io(p, ring.OpWrite, 0, 4, buf); st != ring.StatusOK {
			t.Errorf("status %d", st)
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
	evs := events.Events()
	var kinds []trace.Kind
	for _, e := range evs {
		if e.Fn == 1 {
			kinds = append(kinds, e.Kind)
		}
	}
	// Lifecycle: fetch, then translations/transfers, then completion last.
	if len(kinds) < 3 || kinds[0] != trace.KindFetch || kinds[len(kinds)-1] != trace.KindComplete {
		t.Fatalf("lifecycle kinds = %v", kinds)
	}
	sawTranslate, sawTransfer := false, false
	for _, k := range kinds {
		if k == trace.KindTranslate {
			sawTranslate = true
		}
		if k == trace.KindTransfer {
			sawTransfer = true
		}
	}
	if !sawTranslate || !sawTransfer {
		t.Fatalf("missing pipeline events: %v", kinds)
	}
	// Timestamps are monotone.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace events out of order")
		}
	}
}
