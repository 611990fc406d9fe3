package slo

import (
	"sort"
	"sync"

	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/stats"
)

// Per-tenant SLO engine: each VF gets a declared Objective (a latency target
// plus a good-request goal), and every completed request is classified good
// (status OK and within the latency target) or bad. The engine keeps the
// cumulative error budget — consumed = bad / ((1-goal) · total) — and two
// stats.RateWindows per tenant for the SRE-style multi-window burn-rate
// alert: the alert fires only when BOTH the short and the long window burn
// faster than BurnThreshold× the sustainable rate, which makes it fast on
// real incidents and quiet on blips. Alerts land on the scoreboard as
// structured events and (when a registry is attached) as gauges.

// Objective declares one tenant's service-level objective.
type Objective struct {
	// Latency is the per-request latency target: an OK completion slower
	// than this is still a bad event.
	Latency sim.Time
	// Goal is the required good fraction in (0,1), e.g. 0.99; the error
	// budget is the complementary 1-Goal fraction.
	Goal float64
	// ShortWindow/LongWindow bound the two burn-rate windows of the
	// multi-window alert (virtual time).
	ShortWindow sim.Time
	LongWindow  sim.Time
	// BurnThreshold is the multiple of the sustainable bad rate at which
	// the alert fires (both windows must exceed it).
	BurnThreshold float64
	// MinSamples is the short-window event floor below which no alert
	// fires (keeps a single early failure from alerting on an empty window).
	MinSamples int64
}

// DefaultObjective is a starting point sized for the simulation's
// millisecond-scale experiment runs: 99% of requests under 500µs, alert at
// 4× burn sustained across 200µs and 1ms windows.
func DefaultObjective() Objective {
	return Objective{
		Latency:       500 * sim.Microsecond,
		Goal:          0.99,
		ShortWindow:   200 * sim.Microsecond,
		LongWindow:    1000 * sim.Microsecond,
		BurnThreshold: 4,
		MinSamples:    8,
	}
}

// normalize clamps nonsense objective fields to the defaults.
func (o Objective) normalize() Objective {
	d := DefaultObjective()
	if o.Latency <= 0 {
		o.Latency = d.Latency
	}
	if o.Goal <= 0 || o.Goal >= 1 {
		o.Goal = d.Goal
	}
	if o.ShortWindow <= 0 {
		o.ShortWindow = d.ShortWindow
	}
	if o.LongWindow < o.ShortWindow {
		o.LongWindow = 5 * o.ShortWindow
	}
	if o.BurnThreshold <= 0 {
		o.BurnThreshold = d.BurnThreshold
	}
	if o.MinSamples <= 0 {
		o.MinSamples = d.MinSamples
	}
	return o
}

// burnWindowBuckets is the ring granularity of each burn window.
const burnWindowBuckets = 8

// tracker is one tenant's budget accounting.
type tracker struct {
	vf  int
	obj Objective

	good, bad int64 // cumulative since attach

	shortW, longW *stats.RateWindow

	alerting     bool
	alerts       int64
	firstAlertAt sim.Time // 0 = never fired
	exhaustedAt  sim.Time // 0 = budget never fully consumed
}

func newTracker(vf int, obj Objective) *tracker {
	return &tracker{
		vf:     vf,
		obj:    obj,
		shortW: stats.NewRateWindow(int64(obj.ShortWindow), burnWindowBuckets),
		longW:  stats.NewRateWindow(int64(obj.LongWindow), burnWindowBuckets),
	}
}

// burn converts a window's bad fraction into a burn rate: 1.0 means the
// budget drains exactly at the sustainable rate, N means N× too fast.
func (t *tracker) burn(w *stats.RateWindow) float64 {
	return w.BadFraction() / (1 - t.obj.Goal)
}

// budgetConsumed reports the cumulative error-budget fraction spent.
func (t *tracker) budgetConsumed() float64 {
	total := t.good + t.bad
	if total == 0 {
		return 0
	}
	return float64(t.bad) / ((1 - t.obj.Goal) * float64(total))
}

// observe classifies one completion and runs the alert logic. Reports
// whether the burn alert fired and whether the budget just crossed 100%.
func (t *tracker) observe(at, latency sim.Time, ok bool) (fired, exhausted bool, burnS float64) {
	good := ok && latency <= t.obj.Latency
	if good {
		t.good++
	} else {
		t.bad++
	}
	t.shortW.Observe(int64(at), good)
	t.longW.Observe(int64(at), good)

	burnS = t.burn(t.shortW)
	burnL := t.burn(t.longW)
	sg, sb := t.shortW.Totals()
	switch {
	case !t.alerting && sg+sb >= t.obj.MinSamples &&
		burnS >= t.obj.BurnThreshold && burnL >= t.obj.BurnThreshold:
		t.alerting = true
		t.alerts++
		if t.firstAlertAt == 0 {
			t.firstAlertAt = at
		}
		fired = true
	case t.alerting && burnS < t.obj.BurnThreshold/2:
		// Hysteresis: clear only once the short window cools well below
		// the firing threshold, so a flapping burn emits one alert.
		t.alerting = false
	}
	if t.exhaustedAt == 0 && t.budgetConsumed() >= 1 {
		t.exhaustedAt = at
		exhausted = true
	}
	return fired, exhausted, burnS
}

// Status is one tenant's externally visible SLO state.
type Status struct {
	VF             int
	Objective      Objective
	Good, Bad      int64
	BudgetConsumed float64
	BurnShort      float64
	BurnLong       float64
	Alerting       bool
	Alerts         int64
	FirstAlertAt   sim.Time // 0 = never
	ExhaustedAt    sim.Time // 0 = never
}

// Engine tracks objectives for every observed tenant. Trackers materialize
// lazily on a VF's first completion; the default objective applies unless
// SetObjective installed a per-VF override first. A nil *Engine is a valid
// disabled engine. The steady-state Observe path is one map hit plus integer
// ring arithmetic — no allocation.
type Engine struct {
	mu        sync.Mutex
	def       Objective
	overrides map[int]Objective
	trackers  map[int]*tracker
	board     *Scoreboard
	reg       *metrics.Registry
	alerts    int64
}

// NewEngine builds an engine applying def to every tenant, emitting alert
// events to board (nil = no scoreboard) and publishing per-tenant burn and
// budget gauges in reg (nil = none) as trackers materialize.
func NewEngine(def Objective, board *Scoreboard, reg *metrics.Registry) *Engine {
	return &Engine{
		def:       def.normalize(),
		overrides: make(map[int]Objective),
		trackers:  make(map[int]*tracker),
		board:     board,
		reg:       reg,
	}
}

// SetObjective installs a per-VF objective override. Must run before the
// VF's first completion to take effect (a live tracker keeps its objective).
func (e *Engine) SetObjective(vf int, obj Objective) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.overrides[vf] = obj.normalize()
	e.mu.Unlock()
}

// Observe classifies one completed request for tenant vf. Nil-safe.
func (e *Engine) Observe(vf int, at, latency sim.Time, ok bool, reqID uint64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	t, fresh := e.trackers[vf], false
	if t == nil {
		obj, over := e.overrides[vf]
		if !over {
			obj = e.def
		}
		t = newTracker(vf, obj)
		e.trackers[vf] = t
		fresh = true
	}
	fired, exhausted, burnS := t.observe(at, latency, ok)
	if fired {
		e.alerts++
	}
	e.mu.Unlock()

	// Emissions and registration happen outside e.mu: the scoreboard and the
	// registry have their own locks, and gauge closures take e.mu at export.
	if fresh && e.reg != nil {
		e.registerTracker(t)
	}
	if fired {
		e.board.Emit(Event{At: at, Kind: EventSLOBurn, Dev: -1, VF: vf, ReqID: reqID, Value: burnS})
	}
	if exhausted {
		e.board.Emit(Event{At: at, Kind: EventBudgetExhausted, Dev: -1, VF: vf, ReqID: reqID, Value: 1})
	}
}

// TotalAlerts reports burn alerts fired across all tenants.
func (e *Engine) TotalAlerts() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.alerts
}

// Status snapshots every tracked tenant, sorted by VF.
func (e *Engine) Status() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	out := make([]Status, 0, len(e.trackers))
	for _, t := range e.trackers {
		out = append(out, Status{
			VF:             t.vf,
			Objective:      t.obj,
			Good:           t.good,
			Bad:            t.bad,
			BudgetConsumed: t.budgetConsumed(),
			BurnShort:      t.burn(t.shortW),
			BurnLong:       t.burn(t.longW),
			Alerting:       t.alerting,
			Alerts:         t.alerts,
			FirstAlertAt:   t.firstAlertAt,
			ExhaustedAt:    t.exhaustedAt,
		})
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].VF < out[j].VF })
	return out
}

// registerTracker publishes one tenant's SLO gauges. Called without e.mu
// held; the closures reacquire it per export.
func (e *Engine) registerTracker(t *tracker) {
	l := metrics.VFLabel(t.vf)
	sample := func(get func(*tracker) float64) func() float64 {
		return func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return get(t)
		}
	}
	e.reg.GaugeFunc("nesc_slo_burn_rate_short", "short-window error-budget burn rate", l,
		sample(func(t *tracker) float64 { return t.burn(t.shortW) }))
	e.reg.GaugeFunc("nesc_slo_burn_rate_long", "long-window error-budget burn rate", l,
		sample(func(t *tracker) float64 { return t.burn(t.longW) }))
	e.reg.GaugeFunc("nesc_slo_budget_consumed", "cumulative error-budget fraction spent", l,
		sample(func(t *tracker) float64 { return t.budgetConsumed() }))
	e.reg.GaugeFunc("nesc_slo_alerts_total", "burn-rate alerts fired for this tenant", l,
		sample(func(t *tracker) float64 { return float64(t.alerts) }))
}
