package core

import (
	"testing"

	"nesc/internal/extent"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/slo"
)

// Every pipeline stage asks retireStatus before spending work on a request.
// Sweeping a queue's deadline budget upward from nothing walks the point of
// expiry down the pipeline — multiplexer, then walker, then DTU — until the
// request finally fits its budget. At each stage the request must fail fast
// with the retryable busy status, count every chunk it abandoned, and leave a
// scoreboard event naming the stage and the request.
func TestDeadlineExpiryAtEveryStage(t *testing.T) {
	board := slo.NewScoreboard(8, nil)
	r := newRigWith(t, smallParams(), Sinks{Board: board})
	const blocks = 2
	seen := map[string]bool{}
	r.eng.Go("main", func(p *sim.Proc) {
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 64}})
		r.setVF(p, 0, tr.Root(), 64)
		d := r.openFunction(p, 1)
		buf := r.mem.MustAlloc(blocks*1024, 64)
		for budget := sim.Time(1); ; budget += 25 * sim.Nanosecond {
			if budget > sim.Millisecond {
				t.Fatal("no deadline budget was ever enough")
			}
			r.mmioW(p, d.qOff+ring.QRegDeadline, uint64(budget))
			expired, events := r.ctl.DeadlineExpirations, board.Total()
			st := d.io(p, ring.OpRead, 0, blocks, buf)
			if st == ring.StatusOK {
				if r.ctl.DeadlineExpirations != expired || board.Total() != events {
					t.Errorf("budget %v: a request that met its deadline was counted as expired", budget)
				}
				return
			}
			if st != ring.StatusBusy {
				t.Fatalf("budget %v: status %d, want the retryable ring.StatusBusy", budget, st)
			}
			// The multiplexer abandons the whole request in one event; the
			// walker and the DTU abandon it chunk by chunk, and only the
			// chunks that reach them late.
			gone, evs := r.ctl.DeadlineExpirations-expired, board.Events()
			evs = evs[len(evs)-int(board.Total()-events):]
			if len(evs) == 0 || gone < 1 || gone > blocks {
				t.Fatalf("budget %v: busy with %d events and %d chunks counted expired", budget, len(evs), gone)
			}
			for _, ev := range evs {
				if ev.Kind != slo.EventDeadline || ev.VF != 1 || ev.ReqID != r.ctl.reqSeq {
					t.Fatalf("budget %v: scoreboard event %+v does not name the expired request", budget, ev)
				}
				seen[ev.Note] = true
			}
			if evs[0].Note == "mux" {
				if len(evs) != 1 || gone != blocks {
					t.Errorf("budget %v: the mux left %d events and counted %d chunks, want 1 and all %d", budget, len(evs), gone, blocks)
				}
			} else if gone != int64(len(evs)) {
				t.Errorf("budget %v (%s): %d chunks counted expired over %d events", budget, evs[0].Note, gone, len(evs))
			}
		}
	})
	r.run()
	for _, stage := range []string{"mux", "walker", "dtu"} {
		if !seen[stage] {
			t.Errorf("the sweep never expired a request at the %s", stage)
		}
	}
}
