package stats

import "sort"

// Window is a bounded ring of the most recent latency samples with
// percentile queries — the sliding view a fail-slow detector compares
// against its learned baseline. Unlike Sampler it forgets: old samples roll
// off, so a component that turns slow mid-run moves the window's percentiles
// within one window length instead of being averaged away.
type Window struct {
	samples Ring[float64]
}

// NewWindow allocates a window holding the last size samples (size >= 1).
func NewWindow(size int) *Window { return &Window{samples: NewRing[float64](size)} }

// Add records one sample, evicting the oldest when full.
func (w *Window) Add(v float64) { w.samples.Put(v) }

// N reports how many samples the window currently holds.
func (w *Window) N() int { return w.samples.Len() }

// Reset empties the window.
func (w *Window) Reset() { w.samples.Reset() }

// Percentile reports the p-th percentile (0-100, nearest-rank) of the
// current window, or 0 when empty. Cost is O(n log n) per query on a copy —
// detectors query on a sampling cadence, not per I/O.
func (w *Window) Percentile(p float64) float64 {
	tmp := w.samples.Snapshot()
	if len(tmp) == 0 {
		return 0
	}
	sort.Float64s(tmp)
	if p <= 0 {
		return tmp[0]
	}
	if p >= 100 {
		return tmp[len(tmp)-1]
	}
	idx := int(p / 100 * float64(len(tmp)))
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// SlowDetectorConfig tunes a fail-slow verdict.
type SlowDetectorConfig struct {
	// WindowSize is the sliding window length in samples (default 64).
	WindowSize int
	// BaselineSamples is how many initial samples train the healthy
	// baseline before verdicts are possible (default 32).
	BaselineSamples int
	// SlowFactor flags the component when the window's p99 exceeds
	// SlowFactor x baseline p99 (default 3.0).
	SlowFactor float64
	// MinSamples is the minimum window fill before a verdict (default 16).
	MinSamples int
}

func (c *SlowDetectorConfig) defaults() {
	if c.WindowSize <= 0 {
		c.WindowSize = 64
	}
	if c.BaselineSamples <= 0 {
		c.BaselineSamples = 32
	}
	if c.SlowFactor <= 1 {
		c.SlowFactor = 3.0
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
}

// SlowDetector learns a component's healthy latency baseline from its first
// BaselineSamples observations, then watches a sliding window and flags the
// component fail-slow when the windowed p99 exceeds SlowFactor times the
// baseline p99. It is the gray-failure companion to a fail-stop health FSM:
// the FSM sees errors and timeouts, the detector sees a component that still
// answers — just chronically late.
type SlowDetector struct {
	cfg      SlowDetectorConfig
	baseline *Sampler
	window   *Window
	// BaselineP99 freezes once training completes (0 until then).
	BaselineP99 float64
	// Verdicts counts Slow() evaluations; SlowVerdicts counts positives.
	Verdicts, SlowVerdicts int64
}

// NewSlowDetector builds a detector (zero-value config fields take
// defaults).
func NewSlowDetector(cfg SlowDetectorConfig) *SlowDetector {
	cfg.defaults()
	return &SlowDetector{
		cfg:      cfg,
		baseline: &Sampler{},
		window:   NewWindow(cfg.WindowSize),
	}
}

// Observe records one latency sample (any unit, consistently).
func (d *SlowDetector) Observe(v float64) {
	if d.BaselineP99 == 0 {
		d.baseline.Add(v)
		if d.baseline.N() >= d.cfg.BaselineSamples {
			d.BaselineP99 = d.baseline.Percentile(99)
			if d.BaselineP99 <= 0 {
				// Degenerate all-zero baseline: use the smallest positive
				// epsilon so the factor comparison still works.
				d.BaselineP99 = 1
			}
		}
		return
	}
	d.window.Add(v)
}

// Trained reports whether the healthy baseline has been learned.
func (d *SlowDetector) Trained() bool { return d.BaselineP99 > 0 }

// WindowP99 reports the current windowed p99 (0 when untrained or empty).
func (d *SlowDetector) WindowP99() float64 { return d.window.Percentile(99) }

// Slow evaluates the verdict: trained, enough recent samples, and windowed
// p99 beyond SlowFactor x baseline.
func (d *SlowDetector) Slow() bool {
	d.Verdicts++
	if !d.Trained() || d.window.N() < d.cfg.MinSamples {
		return false
	}
	slow := d.window.Percentile(99) > d.cfg.SlowFactor*d.BaselineP99
	if slow {
		d.SlowVerdicts++
	}
	return slow
}

// Reset clears the sliding window but keeps the learned baseline — used when
// a quarantined component rejoins and must re-earn a verdict from fresh
// samples.
func (d *SlowDetector) Reset() { d.window.Reset() }
