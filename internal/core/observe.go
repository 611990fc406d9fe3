package core

import "nesc/internal/sim"

// Observer is everything the controller reports, and the only way it reports
// anything. Every stage site in pipeline.go makes one Stage call,
// sendCompletion one Finish call, and whatever ends no stage is one Event.
// The calls only read the simulated clock, so an observer cannot perturb
// virtual time. A nil Observer observes nothing.
type Observer interface {
	Stage(r *Request, s Step)
	Finish(r *Request, now sim.Time)
	Event(e Event)
}

// StageID names one stage of the chain (paper Fig. 7).
type StageID uint8

const (
	StFetch     StageID = iota // descriptor DMA + decode (request-level)
	StQueue                    // vLBA queue residence
	StTranslate                // BTLB lookup / tree walk / miss service
	StDTUWait                  // pLBA queue residence
	StTransfer                 // DMA channel service (medium + PCIe)
	StVerify                   // scrub verify service
)

// Translation is how a chunk's translation was satisfied.
type Translation uint8

const (
	TransHit  Translation = iota // BTLB hit
	TransWalk                    // extent-tree walk in hardware
	TransMiss                    // chunk parked; the hypervisor serviced a miss
	TransCow                     // write trapped on a protected extent; sharing broken
)

// Step is one stage interval: the request's fetch (Chunk -1, From its Start)
// or a chunk's stage, which began where its previous one ended, so a chunk's
// steps tile its life. A PF chunk has no queue history: its first step is its
// transfer or verify. Arg is the stage's detail word; How is set on StTranslate.
type Step struct {
	Stage    StageID
	How      Translation
	Chunk    int
	LBA      uint64
	From, To sim.Time
	Arg      uint64
}

// EventKind names an occurrence that ends no stage.
type EventKind uint8

const (
	EvDrop         EventKind = iota // a descriptor fetch or completion write failed
	EvMiss                          // a translation miss latched (Arg: reason)
	EvRewalk                        // the hypervisor released a walk (Arg: verdict)
	EvFault                         // a medium access failed (Arg: request ID)
	EvRetry                         // Req took a medium retry round
	EvReset                         // a function-level reset (Arg: new epoch)
	EvAdmitReject                   // the admission gate failed Req fast
	EvDeadline                      // Req expired at stage Note
	EvMaterialized                  // function Fn came into existence (Obj: *Function)
	EvCowBreak                      // the hypervisor broke sharing (Arg: service ns)
	EvRoute                         // the hypervisor routed a ring client (Obj; Arg 1: a guest's)
)

// Event is one occurrence; At is stamped by Report.
type Event struct {
	Kind     EventKind
	At       sim.Time
	Fn       int
	LBA, Arg uint64
	Req      *Request
	Note     string
	Obj      any
}

// Report hands e to the observer at the current time. The hypervisor reports
// what it does for the device through it.
func (c *Controller) Report(e Event) {
	if c.obs != nil {
		e.At = c.Eng.Now()
		c.obs.Event(e)
	}
}

// stage reports that st of r — of chunk ch, nil for the fetch — ended at now.
func (c *Controller) stage(r *Request, ch *chunk, st StageID, now sim.Time, arg uint64) {
	if c.obs == nil {
		return
	}
	s := Step{Stage: st, Chunk: -1, LBA: r.LBA, From: r.t0, To: now, Arg: arg}
	if ch != nil {
		if ch.mark == 0 {
			ch.mark = now // a PF chunk at the DTU: no interval before this one
			return
		}
		s.Chunk, s.LBA, s.From, s.How, ch.mark = ch.idx, ch.lba, ch.mark, ch.how, now
	}
	c.obs.Stage(r, s)
}

// What an observer reads of a request besides its exported fields.
func (r *Request) Fn() int         { return r.fn.idx }          // function index (0 = PF)
func (r *Request) Queue() int      { return r.q.idx }           // the queue it was fetched from
func (r *Request) Dev() int        { return r.fn.c.P.DeviceID } // device within the fleet
func (r *Request) Status() uint32  { return r.status }
func (r *Request) Start() sim.Time { return r.t0 } // when its descriptor fetch began
func (r *Request) Admitted() bool  { return r.admitted }
