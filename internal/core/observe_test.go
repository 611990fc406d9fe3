package core

import (
	"fmt"
	"slices"
	"testing"

	"nesc/internal/extent"
	"nesc/internal/fault"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// recorder is an Observer that keeps every call in order.
type recorder struct{ calls []obsCall }

// obsCall is one observer call: a Stage (step set), a Finish, or an Event (ev
// set). r is the request a Stage or Finish is about, or the event's Req.
type obsCall struct {
	r    *Request
	step *Step
	ev   *Event
	at   sim.Time
}

func (o *recorder) Stage(r *Request, s Step) {
	o.calls = append(o.calls, obsCall{r: r, step: &s, at: s.To})
}
func (o *recorder) Finish(r *Request, now sim.Time) {
	o.calls = append(o.calls, obsCall{r: r, at: now})
}
func (o *recorder) Event(e Event) { o.calls = append(o.calls, obsCall{r: e.Req, ev: &e, at: e.At}) }

// events returns the recorded events of one kind.
func (o *recorder) events(k EventKind) []Event {
	var evs []Event
	for _, c := range o.calls {
		if c.ev != nil && c.ev.Kind == k {
			evs = append(evs, *c.ev)
		}
	}
	return evs
}

// steps returns the recorded steps of one stage for function fn.
func (o *recorder) steps(fn int, st StageID) []Step {
	var out []Step
	for _, c := range o.calls {
		if c.step != nil && c.step.Stage == st && c.r.Fn() == fn {
			out = append(out, *c.step)
		}
	}
	return out
}

// requests returns the requests the recorder saw fetched, in fetch order.
func (o *recorder) requests() []*Request {
	var rs []*Request
	for _, c := range o.calls {
		if c.step != nil && c.step.Stage == StFetch {
			rs = append(rs, c.r)
		}
	}
	return rs
}

var (
	stageNames = [...]string{StFetch: "fetch", StQueue: "queue", StTranslate: "translate", StDTUWait: "dtu_wait", StTransfer: "transfer", StVerify: "verify"}
	transNames = [...]string{TransHit: "hit", TransWalk: "walk", TransMiss: "miss", TransCow: "cow"}
	evNames    = [...]string{EvDrop: "drop", EvMiss: "miss", EvRewalk: "rewalk", EvFault: "fault", EvRetry: "retry", EvReset: "reset",
		EvAdmitReject: "admit-reject", EvDeadline: "deadline", EvMaterialized: "materialized", EvCowBreak: "cow-break", EvRoute: "route"}
)

func finished(status uint32) string { return fmt.Sprintf("finish %d", status) }

// trail renders what r went through: its steps, its Finish, the events about
// it and those of its function's (but its materialization), in call order.
func (o *recorder) trail(r *Request) []string {
	var out []string
	for _, c := range o.calls {
		switch {
		case c.step != nil && c.r == r:
			s := stageNames[c.step.Stage]
			if c.step.Chunk >= 0 {
				s += fmt.Sprintf("#%d", c.step.Chunk)
			}
			if c.step.Stage == StTranslate {
				s += "/" + transNames[c.step.How]
			}
			out = append(out, s)
		case c.ev != nil && (c.r == r || c.r == nil && c.ev.Fn == r.Fn() && c.ev.Kind != EvMaterialized):
			out = append(out, evNames[c.ev.Kind]+map[bool]string{true: " " + c.ev.Note}[c.ev.Note != ""])
		case c.step == nil && c.ev == nil && c.r == r:
			out = append(out, finished(c.r.Status()))
		}
	}
	return out
}

// checkTiling holds r's steps to the contract: the fetch runs from the
// request's start, each chunk's steps follow one another with no gap, a chunk
// starts after the fetch ended, and nothing is reported after the Finish.
func (o *recorder) checkTiling(t *testing.T, r *Request) {
	t.Helper()
	var fetchEnd, finish sim.Time = -1, -1
	last := map[int]sim.Time{}
	for _, c := range o.calls {
		if c.r != r {
			continue
		}
		if finish >= 0 {
			t.Errorf("a call about the request at %v follows its Finish", c.at)
		}
		switch s := c.step; {
		case s == nil && c.ev == nil:
			finish = c.at
		case s == nil:
		case s.Chunk < 0:
			if s.From != r.Start() {
				t.Errorf("the fetch step starts at %v, the request at %v", s.From, r.Start())
			}
			fetchEnd = s.To
		default:
			if prev, ok := last[s.Chunk]; ok && s.From != prev {
				t.Errorf("chunk %d: %s starts at %v, its previous step ended at %v", s.Chunk, stageNames[s.Stage], s.From, prev)
			} else if !ok && (fetchEnd < 0 || s.From < fetchEnd) {
				t.Errorf("chunk %d starts at %v, before the fetch ended (%v)", s.Chunk, s.From, fetchEnd)
			}
			if s.To < s.From {
				t.Errorf("chunk %d: %s ends before it starts", s.Chunk, stageNames[s.Stage])
			}
			last[s.Chunk] = s.To
		}
	}
	if finish < 0 {
		t.Error("the request never finished")
	}
}

// submit writes descriptors at d's producer index and rings the doorbell once
// for all of them, without waiting.
func (d *dev) submit(p *sim.Proc, descs ...[ring.DescBytes]byte) {
	for _, desc := range descs {
		if err := d.r.mem.Write(d.ringBase+int64(d.prod%testRing)*ring.DescBytes, desc[:]); err != nil {
			d.r.t.Fatal(err)
		}
		d.prod++
	}
	d.r.mmioW(p, d.qOff+ring.QRegDoorbell, uint64(d.prod))
}

func descriptor(op uint32, id uint32, lba uint64, count uint32, buf int64) [ring.DescBytes]byte {
	var desc [ring.DescBytes]byte
	ring.EncodeDescriptor(desc[:], op, id, lba, count, buf)
	return desc
}

// allocOnMiss is a hypervisor miss handler for VF 0: it maps the missed range
// writable at pLBA 600+ (a lazy allocation, or the private copy of a CoW
// break) and releases the walk.
func (r *rig) allocOnMiss(tr *extent.Tree) func(p *sim.Proc) {
	mgmt := r.bar + r.ctl.MgmtPageOffset()
	return func(p *sim.Proc) {
		addr := r.mmioR(p, mgmt+ring.MgmtMissAddr)
		mapped, err := extent.CollectRuns(r.mem, tr.Root(), tr.Fanout())
		if err != nil {
			r.t.Error(err)
		}
		var runs []extent.Run
		for _, run := range mapped {
			if run.Logical > addr || run.End() <= addr {
				runs = append(runs, run)
			}
		}
		if err := tr.Rebuild(append(runs, extent.Run{Logical: addr, Physical: 600 + addr, Count: 1})); err != nil {
			r.t.Error(err)
		}
		r.mmioW(p, mgmt+ring.MgmtTreeRoot, uint64(tr.Root()))
		r.mmioW(p, mgmt+ring.MgmtRewalk, ring.RewalkRetry)
	}
}

// TestObserverContract runs one request down each path of the pipeline and
// pins exactly what the observer is told, in order, and that the steps of
// every chunk tile its life.
func TestObserverContract(t *testing.T) {
	const busy, aborted = ring.StatusBusy, ring.StatusAborted
	vfPath := func(how string, mid ...string) []string {
		return append(append([]string{"fetch", "queue#0"}, mid...), "translate#0/"+how, "dtu_wait#0", "transfer#0", finished(ring.StatusOK))
	}
	for _, tc := range []struct {
		name string
		// run drives the scenario and returns the request to check (its index
		// among the requests the recorder saw fetched).
		run  func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int
		want []string
	}{
		{"btlb hit", func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int {
			d := r.vf0(p, extent.Run{Logical: 0, Physical: 100, Count: 8})
			d.io(p, ring.OpRead, 0, 1, r.buf)
			rec.calls = nil
			d.io(p, ring.OpRead, 1, 1, r.buf)
			return 0
		}, vfPath("hit")},
		{"walk", func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int {
			r.vf0(p, extent.Run{Logical: 0, Physical: 100, Count: 8}).io(p, ring.OpRead, 0, 1, r.buf)
			return 0
		}, vfPath("walk")},
		{"lazy-alloc miss", func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int {
			d := r.vf0(p, extent.Run{Logical: 0, Physical: 100, Count: 2})
			r.missHandler = r.allocOnMiss(r.tree)
			d.io(p, ring.OpWrite, 5, 1, r.buf)
			return 0
		}, vfPath("miss", "miss", "rewalk")},
		{"cow fault", func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int {
			d := r.vf0(p, extent.Run{Logical: 0, Physical: 100, Count: 8, Flags: extent.FlagProtected})
			r.missHandler = r.allocOnMiss(r.tree)
			d.io(p, ring.OpWrite, 3, 1, r.buf)
			return 0
		}, vfPath("cow", "miss", "rewalk")},
		{"pf out-of-band", func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int {
			r.openFunction(p, 0).io(p, ring.OpWrite, 10, 1, r.buf)
			return 0
		}, []string{"fetch", "transfer#0", finished(ring.StatusOK)}},
		{"verify", func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int {
			r.openFunction(p, 0).io(p, ring.OpVerify, 10, 1, 0)
			return 0
		}, []string{"fetch", "verify#0", finished(ring.StatusOK)}},
		{"flr mid-flight", func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int {
			d := r.vf0(p, extent.Run{Logical: 0, Physical: 100, Count: 8})
			d.submit(p, descriptor(ring.OpWrite, 1, 32, 1, r.buf)) // a hole: the walk parks
			p.Sleep(100 * sim.Microsecond)
			r.mmioW(p, d.pageOff+ring.RegReset, 1)
			for r.mmioR(p, d.pageOff+ring.RegReset) != 0 {
				p.Sleep(5 * sim.Microsecond)
			}
			return 0
		}, []string{"fetch", "queue#0", "miss", "reset", "rewalk", finished(aborted)}},
		{"admission reject", func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int {
			r.ctl.P.AdmitInflight = 1
			d := r.vf0(p, extent.Run{Logical: 0, Physical: 100, Count: 8})
			d.submit(p, descriptor(ring.OpRead, 1, 0, 1, r.buf), descriptor(ring.OpRead, 2, 1, 1, r.buf))
			for r.ctl.ReqsDone < 2 {
				p.Sleep(5 * sim.Microsecond)
			}
			return 1
		}, []string{"fetch", "admit-reject", finished(busy)}},
		{"medium retry", func(t *testing.T, r *rig, rec *recorder, p *sim.Proc) int {
			plan := fault.Plan{Seed: 1}
			plan.Sites[fault.MediumRead] = fault.SiteParams{OneShot: []int64{1}}
			r.installPlan(plan)
			r.vf0(p, extent.Run{Logical: 0, Physical: 100, Count: 8}).io(p, ring.OpRead, 0, 1, r.buf)
			return 0
		}, []string{"fetch", "queue#0", "translate#0/walk", "dtu_wait#0", "fault", "retry", "transfer#0", finished(ring.StatusOK)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			r := newRigWith(t, smallParams(), rec)
			var which int
			r.eng.Go("test", func(p *sim.Proc) {
				r.buf = r.mem.MustAlloc(int64(r.ctl.P.BlockSize), 64)
				rec.calls = nil
				which = tc.run(t, r, rec, p)
			})
			r.run()
			reqs := rec.requests()
			if which >= len(reqs) {
				t.Fatalf("the recorder saw %d requests fetched", len(reqs))
			}
			if got := rec.trail(reqs[which]); !slices.Equal(got, tc.want) {
				t.Errorf("observer calls\n got %q\nwant %q", got, tc.want)
			}
			for _, req := range reqs {
				rec.checkTiling(t, req)
			}
		})
	}
}

// TestObserverContractDeadlines sweeps a queue's deadline budget upward (as
// TestDeadlineExpiryAtEveryStage does) and pins the calls of a request that
// expires at each stage: the multiplexer and the walker give it up before it
// enters their stage, the DTU after it was translated.
func TestObserverContractDeadlines(t *testing.T) {
	want := map[string][]string{
		"mux":    {"fetch", "deadline mux", finished(ring.StatusBusy)},
		"walker": {"fetch", "deadline walker", finished(ring.StatusBusy)},
		"dtu":    {"fetch", "queue#0", "translate#0/walk", "deadline dtu", finished(ring.StatusBusy)},
	}
	rec := &recorder{}
	r := newRigWith(t, smallParams(), rec)
	seen := map[string]bool{}
	r.eng.Go("main", func(p *sim.Proc) {
		d := r.vf0(p, extent.Run{Logical: 0, Physical: 0, Count: 64})
		buf := r.mem.MustAlloc(1024, 64)
		for budget := sim.Time(1); budget < sim.Millisecond; budget += 25 * sim.Nanosecond {
			r.mmioW(p, d.qOff+ring.QRegDeadline, uint64(budget))
			r.mmioW(p, r.bar+ring.PFRegBTLBFlush, 1) // every translation walks
			rec.calls = nil
			if d.io(p, ring.OpRead, 0, 1, buf) == ring.StatusOK {
				return
			}
			req := rec.requests()[0]
			evs := rec.events(EvDeadline)
			if len(evs) != 1 {
				t.Fatalf("budget %v: %d deadline events", budget, len(evs))
			}
			if got := rec.trail(req); !slices.Equal(got, want[evs[0].Note]) {
				t.Errorf("budget %v: observer calls\n got %q\nwant %q", budget, got, want[evs[0].Note])
			}
			rec.checkTiling(t, req)
			seen[evs[0].Note] = true
		}
		t.Error("no deadline budget was ever enough")
	})
	r.run()
	for stage := range want {
		if !seen[stage] {
			t.Errorf("the sweep never expired a request at the %s", stage)
		}
	}
}

// vf0 builds VF 0's extent tree over the runs, enables the VF with a 64-block
// disk and opens its queue 0.
func (r *rig) vf0(p *sim.Proc, runs ...extent.Run) *dev {
	r.tree = r.buildTree(runs)
	r.setVF(p, 0, r.tree.Root(), 64)
	return r.openFunction(p, 1)
}
