// Package fabric generalizes the single-device NeSC stack to a managed
// fleet: it synchronously mirrors one virtual disk's writes across K
// replica devices, serves reads from the fastest healthy replica with
// integrity-verified fallback, drives a per-replica health state machine
// (healthy → suspect → failed → rebuilding) off the ordinary driver error
// and timeout signals, and resilvers a revived replica in the background
// from dirty-region tracking. It is the md/DRBD layer of the simulated
// host: everything here rides on top of unmodified VF drivers — the device
// never knows it is being mirrored.
package fabric

import (
	"errors"
	"fmt"

	"nesc/internal/guest"
	"nesc/internal/hostmem"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/telemetry"
)

// State is a replica's health state.
type State int

const (
	// Healthy replicas serve reads and acknowledge writes.
	Healthy State = iota
	// Suspect replicas have seen consecutive failures but still get writes;
	// consecutive successes demote them back to Healthy.
	Suspect
	// Failed replicas are fenced: no I/O is sent until revived. Writes they
	// miss are tracked in the dirty log.
	Failed
	// Rebuilding replicas receive foreground writes while the resilver
	// copies their dirty regions; an empty dirty log promotes them back to
	// Healthy.
	Rebuilding
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	case Rebuilding:
		return "rebuilding"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ErrNoReplicas reports an I/O arriving while every replica is fenced.
var ErrNoReplicas = errors.New("fabric: no live replicas")

// Config tunes the mirror client's health hysteresis and resilver pacing.
type Config struct {
	// SuspectThreshold consecutive failures demote Healthy → Suspect;
	// FailThreshold consecutive failures demote Suspect → Failed;
	// RecoverThreshold consecutive successes promote Suspect → Healthy.
	SuspectThreshold int
	FailThreshold    int
	RecoverThreshold int
	// RegionBlocks is the dirty-log granularity in blocks.
	RegionBlocks uint64
	// ResilverInterval paces the background resilver: one region copy per
	// interval, the scavenger-priority budget that keeps rebuild I/O from
	// starving foreground tenants.
	ResilverInterval sim.Time

	// Gray-failure (fail-slow) mitigation. All knobs default to 0 = off, and
	// the off paths add no simulated events, so existing schedules replay
	// bit-identically.

	// HedgePercentile arms hedged reads: when a read's primary leg has not
	// answered within this percentile of recent read latency, a speculative
	// second read is launched to the next-best leg and the first success
	// wins (the loser lands in a scratch buffer and is discarded). 0
	// disables hedging; 95 is a sane production value.
	HedgePercentile float64
	// HedgeMinDelay floors the adaptive hedge deadline so a cold latency
	// window cannot trigger hedges on every read (default 20us when hedging
	// is armed).
	HedgeMinDelay sim.Time
	// SlowFactor arms per-leg fail-slow detection: a leg whose windowed p99
	// read latency exceeds SlowFactor x its learned healthy baseline is
	// quarantined out of read steering (writes continue, so no redundancy is
	// lost) until QuarantineDuration passes. 0 disables detection.
	SlowFactor float64
	// SlowWindow / SlowBaseline / SlowMinSamples tune the per-leg detector
	// (defaults 64 / 32 / 16 samples).
	SlowWindow, SlowBaseline, SlowMinSamples int
	// QuarantineDuration is how long a flagged leg sits out of read steering
	// before it rejoins with a reset detector window (default 2ms when
	// detection is armed).
	QuarantineDuration sim.Time
	// ProbeEvery, when positive, sends every Nth read to the worst-EWMA
	// eligible leg instead of the best — the probe traffic that lets a
	// recovered leg's EWMA improve and win read steering back. 0 disables
	// probing.
	ProbeEvery int
}

// hedgeWindow sizes the client-wide read-latency window the adaptive hedge
// deadline is computed from, in samples.
const hedgeWindow = 128

// DefaultConfig returns hysteresis and pacing defaults.
func DefaultConfig() Config {
	return Config{
		SuspectThreshold: 2,
		FailThreshold:    4,
		RecoverThreshold: 3,
		RegionBlocks:     64,
		ResilverInterval: 150 * sim.Microsecond,
	}
}

// Replica is one device-backed leg of the mirror.
type Replica struct {
	// Dev is the fleet device index backing this leg.
	Dev int
	// Drv is the VF ring driver on that device.
	Drv guest.BlockDriver

	state      State
	consecFail int
	consecOK   int
	// firstFailAt starts the failover clock when a healthy streak breaks.
	firstFailAt sim.Time
	// dirty tracks regions this replica missed (failed or fenced writes);
	// the resilver drains it.
	dirty *DirtyLog
	// ewmaRead is the smoothed read service time steering read placement.
	ewmaRead float64
	// slow is the per-leg fail-slow detector (nil until Cfg.SlowFactor arms
	// detection and the leg sees its first successful read).
	slow *stats.SlowDetector
	// quarantined marks a leg flagged fail-slow: excluded from read steering
	// (unless it is the only option) until quarantineEnd, when it rejoins
	// with a reset detector window. Orthogonal to the fail-stop FSM — a
	// quarantined leg still takes writes, so redundancy is preserved.
	quarantined   bool
	quarantineEnd sim.Time
}

// Counters is the one declaration of a mirror client's counters (all
// monotonic): Client embeds it and increments the fields in place, and the
// fleet total is the Add of every client's.
type Counters struct {
	MirroredWrites   int64 // writes acknowledged by every live replica
	DegradedWrites   int64 // writes acknowledged by a strict subset
	WriteFailures    int64 // writes no live replica acknowledged
	ReadFallbacks    int64 // reads retried on a peer after ErrIntegrity
	ReadRetries      int64 // reads retried on a peer after other errors
	Suspects         int64 // Healthy → Suspect transitions
	Failovers        int64 // Suspect → Failed transitions (device fenced)
	Recoveries       int64 // Suspect → Healthy transitions
	Revives          int64 // Failed → Rebuilding transitions
	ResilverRegions  int64 // regions copied by the resilver
	ResilverBlocks   int64 // blocks copied by the resilver
	ResilverRestores int64 // Rebuilding → Healthy promotions
	HedgedReads      int64 // speculative second reads launched
	HedgeWins        int64 // hedges that delivered the data first
	Quarantines      int64 // legs flagged fail-slow and pulled from reads
	Rejoins          int64 // quarantined legs readmitted to read steering
	ProbeReads       int64 // reads steered to the worst leg to refresh EWMA
	// LastFailoverLatency is the time from a fenced device's first error to
	// the fence (how long acked writes ran degraded-undetected).
	LastFailoverLatency sim.Time
}

// Add accumulates o into c: counts sum, LastFailoverLatency keeps the largest
// fence latency any client observed.
func (c *Counters) Add(o *Counters) {
	c.MirroredWrites += o.MirroredWrites
	c.DegradedWrites += o.DegradedWrites
	c.WriteFailures += o.WriteFailures
	c.ReadFallbacks += o.ReadFallbacks
	c.ReadRetries += o.ReadRetries
	c.Suspects += o.Suspects
	c.Failovers += o.Failovers
	c.Recoveries += o.Recoveries
	c.Revives += o.Revives
	c.ResilverRegions += o.ResilverRegions
	c.ResilverBlocks += o.ResilverBlocks
	c.ResilverRestores += o.ResilverRestores
	c.HedgedReads += o.HedgedReads
	c.HedgeWins += o.HedgeWins
	c.Quarantines += o.Quarantines
	c.Rejoins += o.Rejoins
	c.ProbeReads += o.ProbeReads
	c.LastFailoverLatency = max(c.LastFailoverLatency, o.LastFailoverLatency)
}

// Client mirrors one virtual disk across replicas. It implements
// guest.BlockDriver, so a guest kernel drives it exactly like a raw VF
// driver; with a single replica it is a thin pass-through that adds no
// simulated events.
type Client struct {
	Eng *sim.Engine
	Mem *hostmem.Memory
	Cfg Config

	reps []*Replica

	// Pause gate for live migration's stop-and-copy window.
	paused   bool
	inflight int
	drained  *sim.Signal
	resumed  *sim.Signal

	// migDirty, when armed by TrackDirty, records every acknowledged write
	// for the migration's iterative copy passes.
	migDirty *DirtyLog

	// resilver machinery
	resilverRunning bool
	// busy region being copied right now: foreground writes overlapping it
	// re-mark the region so the copy converges instead of losing the write.
	busyTarget *Replica
	busyLBA    uint64
	busyCount  uint64

	Counters

	// readLat is the client-wide read-latency window the adaptive hedge
	// deadline derives from (nil unless hedging is armed).
	readLat *stats.Window
	// readCount paces probe reads.
	readCount int64

	// tel is the bundle handed to NewClient; the client reports its delivered
	// reads and its legs' quarantines there as the tenant, the function index
	// this client fronts.
	tel    telemetry.Sinks
	tenant int
}

// NewClient mirrors across the given replicas (at least one). All replicas
// must agree on block size and capacity. Gray-failure verdicts and delivered
// reads are reported to tel against function index tenantVF.
func NewClient(eng *sim.Engine, mem *hostmem.Memory, cfg Config, reps []*Replica, tel telemetry.Sinks, tenantVF int) (*Client, error) {
	if len(reps) == 0 {
		return nil, errors.New("fabric: no replicas")
	}
	def := DefaultConfig()
	if cfg.SuspectThreshold <= 0 {
		cfg.SuspectThreshold = def.SuspectThreshold
	}
	if cfg.FailThreshold <= cfg.SuspectThreshold {
		cfg.FailThreshold = cfg.SuspectThreshold + def.FailThreshold - def.SuspectThreshold
	}
	if cfg.RecoverThreshold <= 0 {
		cfg.RecoverThreshold = def.RecoverThreshold
	}
	if cfg.RegionBlocks == 0 {
		cfg.RegionBlocks = def.RegionBlocks
	}
	if cfg.ResilverInterval <= 0 {
		cfg.ResilverInterval = def.ResilverInterval
	}
	if cfg.HedgePercentile > 0 && cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = 20 * sim.Microsecond
	}
	if cfg.SlowFactor > 0 && cfg.QuarantineDuration <= 0 {
		cfg.QuarantineDuration = 2 * sim.Millisecond
	}
	bs, capacity := reps[0].Drv.BlockSize(), reps[0].Drv.CapacityBlocks()
	for _, r := range reps[1:] {
		if r.Drv.BlockSize() != bs || r.Drv.CapacityBlocks() != capacity {
			return nil, fmt.Errorf("fabric: replica geometry mismatch (dev %d)", r.Dev)
		}
	}
	c := &Client{Eng: eng, Mem: mem, Cfg: cfg, reps: reps, tel: tel, tenant: tenantVF}
	if cfg.HedgePercentile > 0 {
		c.readLat = stats.NewWindow(hedgeWindow)
	}
	for _, r := range reps {
		r.dirty = NewDirtyLog(uint64(capacity), cfg.RegionBlocks)
	}
	return c, nil
}

// NewReplica wraps a driver as a mirror leg on fleet device dev.
func NewReplica(dev int, drv guest.BlockDriver) *Replica {
	return &Replica{Dev: dev, Drv: drv}
}

// BlockSize implements guest.BlockDriver.
func (c *Client) BlockSize() int { return c.reps[0].Drv.BlockSize() }

// CapacityBlocks implements guest.BlockDriver.
func (c *Client) CapacityBlocks() int64 { return c.reps[0].Drv.CapacityBlocks() }

// MaxBlocksPerReq implements guest.BlockDriver.
func (c *Client) MaxBlocksPerReq() int {
	m := c.reps[0].Drv.MaxBlocksPerReq()
	for _, r := range c.reps[1:] {
		if n := r.Drv.MaxBlocksPerReq(); n < m {
			m = n
		}
	}
	return m
}

// Submit implements guest.BlockDriver: writes mirror synchronously to every
// live replica; reads go to the fastest healthy replica with fallback.
func (c *Client) Submit(p *sim.Proc, write bool, lba int64, buf guest.Buffer) error {
	for c.paused {
		c.resumed.Await(p)
	}
	c.inflight++
	defer func() {
		c.inflight--
		if c.inflight == 0 && c.drained != nil {
			c.drained.Fire()
		}
	}()
	if write {
		return c.submitWrite(p, lba, buf)
	}
	return c.submitRead(p, lba, buf)
}

func (c *Client) submitWrite(p *sim.Proc, lba int64, buf guest.Buffer) error {
	blocks := uint64(len(buf.Data) / c.BlockSize())
	// Live legs get the write; fenced legs miss it.
	var live, missed []*Replica
	for _, r := range c.reps {
		if r.state == Failed {
			missed = append(missed, r)
		} else {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		c.WriteFailures++
		return ErrNoReplicas
	}
	errs := make([]error, len(live))
	if len(live) == 1 {
		// Single live leg (or an unmirrored disk): no fan-out machinery, no
		// extra events — the pass-through is schedule-neutral.
		errs[0] = live[0].Drv.Submit(p, true, lba, buf)
	} else {
		// Synchronous mirroring: the caller's process drives leg 0, spawned
		// processes drive the rest, and the write completes only when every
		// live leg has answered.
		wg := sim.NewWaitGroup(c.Eng)
		for i := 1; i < len(live); i++ {
			i, r := i, live[i]
			wg.Add(1)
			c.Eng.Go(fmt.Sprintf("fabric-w-dev%d", r.Dev), func(wp *sim.Proc) {
				errs[i] = r.Drv.Submit(wp, true, lba, buf)
				wg.Done()
			})
		}
		errs[0] = live[0].Drv.Submit(p, true, lba, buf)
		wg.WaitFor(p)
	}
	acked, current := 0, false
	var firstErr error
	for i, r := range live {
		if errs[i] != nil {
			missed = append(missed, r)
			c.reportFailure(p, r)
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		acked++
		if c.busyTarget == r && rangesOverlap(uint64(lba), blocks, c.busyLBA, c.busyCount) {
			// This write raced the resilver's in-flight copy of the same
			// region: the stale copy may land after us, so re-mark the
			// region and let the next pass re-copy it.
			r.dirty.Mark(uint64(lba), blocks)
		}
		current = current || !r.dirty.Intersects(uint64(lba), blocks)
		c.reportSuccess(r)
	}
	if !current {
		// Only legs already stale around the range took the write, so none
		// would hold it whole: the write is not acknowledged, and no leg is
		// marked for it — the range holds what each leg has, as after any
		// failed write. Marking the legs that missed it would leave a region
		// no leg can serve or resilver from.
		c.WriteFailures++
		if firstErr == nil {
			firstErr = ErrNoReplicas
		}
		return firstErr
	}
	for _, r := range missed {
		r.dirty.Mark(uint64(lba), blocks)
		if r.state == Suspect {
			// Otherwise only foreground traffic would move the leg, and it
			// may never come: the resilver drains its log
			// (nextRebuildTarget).
			c.kickResilver()
		}
	}
	if c.migDirty != nil {
		c.migDirty.Mark(uint64(lba), blocks)
	}
	if acked < len(live) {
		c.DegradedWrites++
	}
	if len(c.reps) > 1 {
		c.MirroredWrites++
	}
	return nil
}

func (c *Client) submitRead(p *sim.Proc, lba int64, buf guest.Buffer) error {
	blocks := uint64(len(buf.Data) / c.BlockSize())
	t0 := p.Now()
	c.readCount++
	probe := c.Cfg.ProbeEvery > 0 && c.readCount%int64(c.Cfg.ProbeEvery) == 0
	tried := make(map[*Replica]bool, len(c.reps))
	var firstErr error
	for attempt := 0; ; attempt++ {
		var r *Replica
		if probe && attempt == 0 {
			// Probe tick: steer this read to the worst-EWMA eligible leg so a
			// leg that lost read traffic keeps a live latency estimate and can
			// win steering back once it recovers.
			if r = c.pickProbe(uint64(lba), blocks); r != nil {
				c.ProbeReads++
			}
		}
		if r == nil {
			r = c.pickRead(uint64(lba), blocks, tried)
		}
		if r == nil {
			break
		}
		tried[r] = true
		if c.Cfg.HedgePercentile > 0 {
			svc, err := c.hedgedRead(p, r, lba, buf, blocks, tried)
			if err == nil {
				c.tel.FabricRead(c.tenant, p.Now()-t0, svc, true)
				return nil
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		start := p.Now()
		err := r.Drv.Submit(p, false, lba, buf)
		c.accountReadLeg(p, r, p.Now()-start, err)
		if err == nil {
			c.observeDelivered(p.Now() - start)
			c.tel.FabricRead(c.tenant, p.Now()-t0, p.Now()-start, true)
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = ErrNoReplicas
	}
	c.tel.FabricRead(c.tenant, p.Now()-t0, 0, false)
	return firstErr
}

// accountReadLeg books the outcome of one read a leg has answered, for the
// plain path and for each hedge worker alike — win or lose, a finished read
// is a real observation of that leg.
func (c *Client) accountReadLeg(p *sim.Proc, r *Replica, took sim.Time, err error) {
	switch {
	case err == nil:
		c.observeRead(r, took)
		c.reportSuccess(r)
	case errors.Is(err, ring.ErrIntegrity):
		// The device's guard verification caught corrupt data. The replica
		// answered promptly — this is a data problem, not a transport
		// problem — so the caller falls back to a peer without the health
		// state machine being charged.
		c.ReadFallbacks++
	default:
		c.ReadRetries++
		c.reportFailure(p, r)
	}
}

// pickRead chooses the untried replica with the lowest smoothed read
// latency whose data for the range is known-good: fenced legs and legs
// whose dirty log intersects the range are ineligible. Quarantined
// (fail-slow) legs are passed over unless no other leg can serve — a slow
// answer still beats none.
func (c *Client) pickRead(lba, blocks uint64, tried map[*Replica]bool) *Replica {
	if best := c.pickBest(lba, blocks, tried, false); best != nil {
		return best
	}
	return c.pickBest(lba, blocks, tried, true)
}

// serves reports whether r holds [lba, lba+blocks) current: not fenced, not
// dirty there, and not the target of the resilver copy in flight over it,
// whose dirty bit is cleared before the copy lands.
func (c *Client) serves(r *Replica, lba, blocks uint64) bool {
	return r.state != Failed && !r.dirty.Intersects(lba, blocks) &&
		!(c.busyTarget == r && rangesOverlap(lba, blocks, c.busyLBA, c.busyCount))
}

func (c *Client) pickBest(lba, blocks uint64, tried map[*Replica]bool, allowQuarantined bool) *Replica {
	var best *Replica
	for _, r := range c.reps {
		if tried[r] || !c.serves(r, lba, blocks) {
			continue
		}
		if !allowQuarantined && !c.admitRead(r) {
			continue
		}
		if best == nil || r.ewmaRead < best.ewmaRead {
			best = r
		}
	}
	return best
}

func (c *Client) observeRead(r *Replica, d sim.Time) {
	const alpha = 0.25
	if r.ewmaRead == 0 {
		r.ewmaRead = float64(d)
	} else {
		r.ewmaRead += alpha * (float64(d) - r.ewmaRead)
	}
	if c.Cfg.SlowFactor > 0 {
		c.observeSlow(r, d)
	}
}

// reportFailure advances the health state machine on an I/O error, with
// hysteresis so one transient fault does not fence a device.
func (c *Client) reportFailure(p *sim.Proc, r *Replica) {
	if r.state == Failed {
		return
	}
	if r.consecFail == 0 {
		r.firstFailAt = p.Now()
	}
	r.consecFail++
	r.consecOK = 0
	switch r.state {
	case Healthy:
		if r.consecFail >= c.Cfg.SuspectThreshold {
			r.state = Suspect
			c.Suspects++
		}
	case Suspect, Rebuilding:
		// A rebuilding leg is not demoted: the resilver keeps serving it, and
		// its copies are what fence it or bring it back.
		if r.consecFail >= c.Cfg.FailThreshold {
			r.state = Failed
			c.Failovers++
			c.LastFailoverLatency = p.Now() - r.firstFailAt
		}
	}
}

// reportSuccess rewards a completed I/O; consecutive successes clear a
// suspect replica, and a rebuilding one is handed back to the resilver.
func (c *Client) reportSuccess(r *Replica) {
	r.consecFail = 0
	if r.state == Healthy && r.dirty.DirtyRegions() != 0 {
		// A write failed here without making the leg suspect: it answers
		// again but is stale where it missed the write, and only the
		// resilver, which serves rebuilding legs, drains a dirty log.
		r.state = Rebuilding
	}
	if r.state == Rebuilding {
		c.kickResilver()
	}
	if r.state == Suspect {
		r.consecOK++
		if r.consecOK >= c.Cfg.RecoverThreshold {
			r.consecOK = 0
			if r.dirty.DirtyRegions() == 0 {
				r.state = Healthy
				c.Recoveries++
			} else {
				// The suspect window dropped writes: the replica is reachable
				// again but stale, so it must resilver before serving reads
				// of the affected regions.
				r.state = Rebuilding
				c.Recoveries++
				c.kickResilver()
			}
		}
	}
}

// Revive moves a fenced replica to Rebuilding and starts the resilver —
// called when the operator (or the fault plan) brings a killed device back.
func (c *Client) Revive(dev int) {
	for _, r := range c.reps {
		if r.Dev == dev && r.state == Failed {
			r.state = Rebuilding
			r.consecFail = 0
			r.consecOK = 0
			c.Revives++
			c.kickResilver()
		}
	}
}

func rangesOverlap(aLBA, aN, bLBA, bN uint64) bool {
	return aN > 0 && bN > 0 && aLBA < bLBA+bN && bLBA < aLBA+aN
}
