package bench

import (
	"errors"
	"strings"
	"testing"

	"nesc/internal/sim"
)

// The runner applies each point's delta to its own copy of the config, runs
// the points in order, and stops at the first that fails, naming it.
func TestEachPointLabelsTheFailingPointAndStops(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := eachPoint(DefaultConfig(), []int{4, 8, 16}, func(c *Config, entries int) { c.Core.BTLBEntries = entries },
		func(p *sim.Proc, pl *Platform, entries int) error {
			ran = append(ran, entries)
			if got := pl.Hyp.Device(0).Ctl.P.BTLBEntries; got != entries {
				t.Errorf("point %d runs on a platform with %d BTLB entries", entries, got)
			}
			if p.Now() == 0 {
				t.Errorf("point %d: body started before the platform booted", entries)
			}
			if entries == 8 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "point 8") {
		t.Errorf("err = %v, want boom labelled with point 8", err)
	}
	if len(ran) != 2 || ran[0] != 4 || ran[1] != 8 {
		t.Errorf("points run: %v, want [4 8]", ran)
	}
	if def := DefaultConfig().Core.BTLBEntries; def == 4 || def == 16 {
		t.Fatalf("the test's points must differ from the default %d", def)
	}
}

// A fan waits for every process it started, however late each finishes, and
// reports the error that happened first in virtual time — not the one whose
// process was started first.
func TestFanOutWaitsForAllAndReturnsFirstErrorInTime(t *testing.T) {
	early, late := errors.New("early"), errors.New("late")
	_, err := runPoint(DefaultConfig(), func(p *sim.Proc, pl *Platform) error {
		start := p.Now()
		finished := 0
		f := pl.fanOut()
		for _, c := range []struct {
			sleep sim.Time
			err   error
		}{{300 * sim.Microsecond, late}, {100 * sim.Microsecond, early}, {500 * sim.Microsecond, nil}} {
			f.Go("napper", func(q *sim.Proc) error {
				q.Sleep(c.sleep)
				finished++
				return c.err
			})
		}
		if err := f.Wait(p); err != early {
			t.Errorf("Wait returned %v, want the error at 100us", err)
		}
		if finished != 3 || p.Now()-start != 500*sim.Microsecond {
			t.Errorf("Wait returned with %d of 3 processes finished, %v after the start; want 3 at 500us", finished, p.Now()-start)
		}
		// Nothing started since: Wait returns at once, same verdict.
		if err := f.Wait(p); err != early || p.Now()-start != 500*sim.Microsecond {
			t.Errorf("second Wait: %v at %v", err, p.Now()-start)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
