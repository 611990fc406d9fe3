package fabric

import (
	"nesc/internal/guest"
	"nesc/internal/sim"
	"nesc/internal/stats"
)

// Gray-failure mitigation: the fail-stop FSM in fabric.go sees errors and
// timeouts; this file handles the component that still answers, just
// chronically late. Three mechanisms, each off by default and schedule-
// neutral when off:
//
//   - hedged reads (Cfg.HedgePercentile): if the primary leg has not
//     answered within an adaptive percentile of recent read latency, launch
//     a speculative second read on the next-best leg; first success wins.
//     Both legs DMA into client-owned scratch buffers — never the guest's —
//     so the loser's late landing cannot corrupt guest memory. The loser is
//     simply discarded when it completes (its latency still feeds the EWMA
//     and fail-slow detector, which is how chronic slowness gets noticed).
//   - quarantine (Cfg.SlowFactor): a per-leg SlowDetector learns the leg's
//     healthy baseline and flags it when windowed p99 blows past
//     SlowFactor x baseline; flagged legs leave read steering (writes
//     continue, so no redundancy is lost) and rejoin after
//     Cfg.QuarantineDuration with a reset window.
//   - probe reads (Cfg.ProbeEvery): every Nth read goes to the worst-EWMA
//     eligible leg, keeping latency estimates live for legs that stopped
//     receiving reads so a recovered leg can win traffic back.

// observeSlow feeds a successful read's latency into the leg's fail-slow
// detector and quarantines the leg when the verdict turns slow.
func (c *Client) observeSlow(r *Replica, d sim.Time) {
	if r.slow == nil {
		r.slow = stats.NewSlowDetector(stats.SlowDetectorConfig{
			WindowSize:      c.Cfg.SlowWindow,
			BaselineSamples: c.Cfg.SlowBaseline,
			SlowFactor:      c.Cfg.SlowFactor,
			MinSamples:      c.Cfg.SlowMinSamples,
		})
	}
	r.slow.Observe(float64(d))
	if !r.quarantined && r.slow.Slow() {
		r.quarantined = true
		r.quarantineEnd = c.Eng.Now() + c.Cfg.QuarantineDuration
		c.Quarantines++
		ratio := 0.0
		if r.slow.BaselineP99 > 0 {
			ratio = r.slow.WindowP99() / r.slow.BaselineP99
		}
		c.tel.Quarantined(c.Eng.Now(), r.Dev, c.tenant, ratio, c.Cfg.QuarantineDuration)
		if r.state == Healthy {
			// Couple into the fail-stop FSM: a chronically slow leg is
			// suspect. Write successes will promote it back while the
			// quarantine flag keeps it out of read steering.
			r.state = Suspect
			c.Suspects++
		}
	}
}

// observeDelivered feeds the client-wide latency window the hedge deadline
// derives from. Only *delivered* latency goes in — what the tenant actually
// waited, with hedging already applied. Feeding hedge losers here instead
// would poison the window with exactly the stragglers hedging routes
// around, inflating the adaptive deadline until hedges fire too late to
// help (the losers still feed the per-leg EWMA and fail-slow detector,
// where slow samples are the signal, via observeRead).
func (c *Client) observeDelivered(d sim.Time) {
	if c.readLat != nil {
		c.readLat.Add(float64(d))
	}
}

// admitRead reports whether a leg may serve reads, lazily expiring its
// quarantine window. Never called into existence on the off path: with
// SlowFactor 0 no leg is ever quarantined and this is a single branch.
func (c *Client) admitRead(r *Replica) bool {
	if !r.quarantined {
		return true
	}
	if c.Eng.Now() >= r.quarantineEnd {
		r.quarantined = false
		c.Rejoins++
		if r.slow != nil {
			r.slow.Reset()
		}
		c.tel.Rejoined(c.Eng.Now(), r.Dev, c.tenant)
		return true
	}
	return false
}

// pickProbe chooses the worst-EWMA eligible leg, or nil when fewer than two
// legs are eligible (probing a sole leg teaches nothing).
func (c *Client) pickProbe(lba, blocks uint64) *Replica {
	var best, worst *Replica
	for _, r := range c.reps {
		if !c.serves(r, lba, blocks) || !c.admitRead(r) {
			continue
		}
		if best == nil || r.ewmaRead < best.ewmaRead {
			best = r
		}
		if worst == nil || r.ewmaRead > worst.ewmaRead {
			worst = r
		}
	}
	if worst == nil || worst == best {
		return nil
	}
	return worst
}

// hedgeDeadline computes the adaptive hedge trigger: the configured
// percentile of the recent client-wide read-latency window, floored by
// HedgeMinDelay so a cold or unluckily fast window cannot make every read
// hedge.
func (c *Client) hedgeDeadline() sim.Time {
	d := c.Cfg.HedgeMinDelay
	if c.readLat != nil && c.readLat.N() >= 16 {
		if q := sim.Time(c.readLat.Percentile(c.Cfg.HedgePercentile)); q > d {
			d = q
		}
	}
	return d
}

// hedgeLeg is one in-flight half of a hedged read. Its scratch buffer lives
// for the leg: hedged reads land there and the winner is copied to the
// guest's buffer, so a hedge loser completing late can never scribble on
// guest memory the caller has already moved past.
type hedgeLeg struct {
	r       *Replica
	scratch guest.Buffer
	err     error
	fin     bool
	done    *sim.Signal
	// abandoned tells a still-running leg to free its scratch buffer itself
	// when it completes (the caller has already moved on).
	abandoned bool
}

// launchLeg spawns one hedged read half into a fresh n-byte scratch buffer.
// The worker does its own health and latency accounting on completion.
func (c *Client) launchLeg(r *Replica, lba int64, n int, start sim.Time, first *sim.Signal) *hedgeLeg {
	leg := &hedgeLeg{r: r, scratch: guest.AllocBuffer(c.Mem, int64(n)), done: sim.NewSignal(c.Eng)}
	c.Eng.Go("fabric-hedge", func(wp *sim.Proc) {
		leg.err = r.Drv.Submit(wp, false, lba, leg.scratch)
		leg.fin = true
		c.accountReadLeg(wp, r, wp.Now()-start, leg.err)
		if leg.abandoned {
			leg.scratch.Free(c.Mem)
		}
		leg.done.Fire()
		first.Fire()
	})
	return leg
}

// release frees a finished-or-abandoned leg's scratch buffer: now when the
// worker has completed, when it completes otherwise.
func (c *Client) release(leg *hedgeLeg) {
	if leg.fin {
		leg.scratch.Free(c.Mem)
	} else {
		leg.abandoned = true
	}
}

// hedgedRead performs one read attempt with speculation. The primary leg
// runs in a worker against a scratch buffer; if it has not answered by the
// adaptive deadline, a second worker is launched on the next-best eligible
// leg and the first success wins — its bytes are copied to the guest
// buffer, the loser is discarded via release. Returns the winning leg's own
// service time (for latency attribution: delivered time minus this is the
// fabric's steering/hedging overhead) and nil on success; otherwise every
// leg it touched failed (and was marked tried).
func (c *Client) hedgedRead(p *sim.Proc, primary *Replica, lba int64, buf guest.Buffer, blocks uint64, tried map[*Replica]bool) (sim.Time, error) {
	n := len(buf.Data)
	start := p.Now()
	first := sim.NewSignal(c.Eng)
	pri := c.launchLeg(primary, lba, n, start, first)
	if !pri.done.AwaitTimeout(p, c.hedgeDeadline()) {
		// Primary is late. Hedge to the next-best leg if one exists.
		if backup := c.pickRead(uint64(lba), blocks, tried); backup != nil {
			tried[backup] = true
			c.HedgedReads++
			hedgeAt := p.Now()
			sec := c.launchLeg(backup, lba, n, start, first)
			first.Await(p)
			// At least one leg has finished; if it failed, wait out the other.
			if !(pri.fin && pri.err == nil) && !(sec.fin && sec.err == nil) {
				if !pri.fin {
					pri.done.Await(p)
				} else if !sec.fin {
					sec.done.Await(p)
				}
			}
			var winner, loser *hedgeLeg
			svc := p.Now() - start
			switch {
			case pri.fin && pri.err == nil:
				winner, loser = pri, sec
			case sec.fin && sec.err == nil:
				winner, loser = sec, pri
				c.HedgeWins++
				// The backup only started at the hedge deadline: its own
				// service time excludes the delay spent waiting on the
				// primary, which attribution reports as fabric wait.
				svc = p.Now() - hedgeAt
			}
			if winner != nil {
				copy(buf.Data, winner.scratch.Data)
				c.release(winner)
				c.release(loser)
				c.observeDelivered(p.Now() - start)
				return svc, nil
			}
			c.release(pri)
			c.release(sec)
			if pri.err != nil {
				return 0, pri.err
			}
			return 0, sec.err
		}
		pri.done.Await(p)
	}
	if pri.err == nil {
		copy(buf.Data, pri.scratch.Data)
		c.release(pri)
		c.observeDelivered(p.Now() - start)
		return p.Now() - start, nil
	}
	c.release(pri)
	return 0, pri.err
}
