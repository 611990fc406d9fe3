package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"nesc"
)

// hostUsage is one reading of the host-side meters.
type hostUsage struct {
	wall       time.Time
	user, sys  time.Duration
	maxRSSKB   int64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readHost() hostUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return hostUsage{
		wall:       time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		maxRSSKB:   ru.Maxrss,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

// hostCost is the host cost of one timed interval.
type hostCost struct {
	wall, user, sys time.Duration
	mallocs, bytes  uint64
	gcCycles        uint32
	gcPause         time.Duration
}

func (a hostUsage) until(b hostUsage) hostCost {
	return hostCost{
		wall: b.wall.Sub(a.wall), user: b.user - a.user, sys: b.sys - a.sys,
		mallocs: b.mallocs - a.mallocs, bytes: b.allocBytes - a.allocBytes,
		gcCycles: b.gcCycles - a.gcCycles, gcPause: time.Duration(b.gcPauseNs - a.gcPauseNs),
	}
}

// pass is one complete execution of a workload in a fresh simulation:
// set-up, warm-up, measured phase, virtio reference.
type pass struct {
	wl     *workload
	pl     *plan
	traced bool
	inject bool // corrupt the first measured read before verifying it
	// setupOnly stops the pass once the NeSC side is built.
	setupOnly bool
	spans     *spanLog
	// profile, when set, receives a CPU profile of the measured phase.
	profile string

	sim      *nesc.Simulation
	steps    map[string]stepTime // wall per named set-up / boot step
	setup    time.Duration
	measured hostCost
	peakRSS  int64 // KB, read as the measured phase ends

	attempted, failed int64
	harness           time.Duration // measured-phase wall spent stamping and verifying

	simElapsed time.Duration // virtual length of the measured phase
	userBytes  int64
	lat        []int64 // every measured op's virtual ns, sorted
	prefixOps  int
	// simPrefix and refElapsed are the virtual time NeSC and virtio took
	// for the reference prefix, summed over the ref clients: each client's
	// time from the start of the phase to its last prefix op completing.
	simPrefix, refElapsed time.Duration
	refWall               time.Duration
	before                snapshot
	after                 snapshot
	checkErr              error
}

// phase names which part of a pass a client loop belongs to.
type phase int

const (
	phaseWarm      phase = iota // untimed, unrecorded
	phaseMeasured               // timed; every op's virtual latency recorded
	phaseReference              // the virtio replay of each ref client's prefix
)

// stepTime accumulates the wall time of every step of one name.
type stepTime struct {
	total time.Duration
	n     int
}

func (s stepTime) meanMs() float64 { return ratio(float64(s.total)/1e6, float64(s.n)) }

// snapshot is the platform's exported counters at one instant.
type snapshot struct {
	stats  nesc.Stats
	fabric nesc.FabricStats
	rows   []nesc.AttributionRow
	reg    registry
}

func (r *pass) snap() snapshot {
	s := snapshot{stats: r.sim.Stats(), fabric: r.sim.FabricStats()}
	if r.traced {
		s.rows = r.sim.AttributionRows()
		s.reg = readRegistry(r.sim)
	}
	return s
}

// step times one named set-up step, as a harness span when tracing.
func (r *pass) step(name string, fn func() error) error {
	id := r.spans.begin(name)
	t0 := time.Now()
	err := fn()
	st := r.steps[name]
	r.steps[name] = stepTime{total: st.total + time.Since(t0), n: st.n + 1}
	r.spans.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func newPass(wl *workload, seed int64, ops int) *pass {
	return &pass{
		wl:    wl,
		pl:    wl.plan(rand.New(rand.NewSource(seed)), ops),
		steps: make(map[string]stepTime),
	}
}

// run executes the pass. Everything from nesc.New to the last VM start is
// set-up; the warm-up and the reference pass are untimed.
func (r *pass) run() error {
	cfg := r.wl.config()
	if r.traced {
		cfg.Metrics, cfg.TraceSpans, cfg.Attribution = true, 4096, true
	}
	prepareHeap()
	t0 := time.Now()
	setupSpan := r.spans.begin("setup")
	r.sim = nesc.New(cfg)
	releaseGC()
	err := r.sim.Run(func(ctx *nesc.Ctx) error {
		w, err := r.wl.build(r, ctx, r.pl, nesc.BackendNeSC, "")
		r.spans.end(setupSpan)
		r.setup = time.Since(t0)
		if err != nil || r.setupOnly {
			return err
		}
		if err := r.warmUp(ctx, w); err != nil {
			return err
		}
		if err := r.measure(ctx, w); err != nil {
			return err
		}
		return r.reference(ctx)
	})
	if err != nil {
		return fmt.Errorf("%s: %w", r.wl.name, err)
	}
	if !r.traced {
		r.sim = nil // the platform is half a gigabyte; only a traced pass is read again
	}
	return nil
}

// singleP sets GOMAXPROCS to 1 for everything a child measures, unless the
// GOMAXPROCS environment variable asks for another value. The simulator runs
// one goroutine at a time and hands control over through channels; with a
// second P a hand-off may wake another thread, and on a shared two-core VM
// the latency of that wake-up drifts by a fifth over minutes, while plain
// computation stays within a hundredth. Whether hand-offs cross threads at
// all also depends on what the scheduler did before, so two processes on one
// seed can differ by half. One P keeps the hand-off (a goroutine switch) in
// the measurement and drops both effects. `GOMAXPROCS=2 bash
// benchmarks/run.sh ...` measures what Go's default costs: 1.2 to 1.7 times
// the wall time on the baseline box, depending on the minute.
func singleP() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
}

// gcPercent is the collector's setting when the process started. The
// collector is held off from then until releaseGC.
var (
	gcPercent = debug.SetGCPercent(-1)
	gcHeld    = true
)

func releaseGC() {
	if gcHeld {
		gcHeld = false
		debug.SetGCPercent(gcPercent)
	}
}

// prepareHeap makes nesc.New's half-gigabyte of simulated host memory cost
// the same on every run. The Go runtime skips clearing a large allocation
// only when no page under it was ever used; whether a page freed by an early
// collection lies under it is a matter of timing, and when one does the
// whole half-gigabyte is cleared and becomes resident: peak RSS read 512 MB
// higher on a third of the runs. So an end-to-end child allocates its first
// platform before any collection has run, on untouched zero pages from the
// kernel; every other platform is allocated after all freed memory went back
// to the kernel, on pages the runtime clears every time.
func prepareHeap() {
	if !gcHeld {
		debug.FreeOSMemory()
	}
}

// setupOnly builds the NeSC side in a fresh simulation and reports how long
// that took: one more sample for the setup_s median.
func setupOnly(wl *workload, pl *plan) (time.Duration, error) {
	r := &pass{wl: wl, pl: pl, steps: make(map[string]stepTime), setupOnly: true}
	err := r.run()
	return r.setup, err
}

func (r *pass) warmUp(ctx *nesc.Ctx, w *world) error {
	id := r.spans.begin("warmup")
	defer r.spans.end(id)
	return r.runClients(ctx, w, phaseWarm)
}

func (r *pass) measure(ctx *nesc.Ctx, w *world) error {
	for _, c := range r.pl.clients {
		c.lat = make([]int64, len(c.ops))
	}
	runtime.GC()
	stopProfile := func() error { return nil }
	if r.profile != "" {
		f, err := os.Create(r.profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stopProfile = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	r.before = r.snap()
	id := r.spans.begin("measured")
	v0 := ctx.Now()
	h0 := readHost()
	err := r.runClients(ctx, w, phaseMeasured)
	h1 := readHost()
	r.simElapsed = ctx.Now() - v0
	r.spans.end(id)
	r.measured = h0.until(h1)
	r.peakRSS = h1.maxRSSKB
	r.after = r.snap()
	if err := errors.Join(err, stopProfile()); err != nil {
		return err
	}
	for _, c := range r.pl.clients {
		r.lat = append(r.lat, c.lat...)
		for _, o := range c.ops {
			r.userBytes += int64(o.size)
		}
		if c.ref {
			r.prefixOps += r.wl.prefixLen(c)
			r.simPrefix += c.prefixAt - v0
		}
	}
	slices.Sort(r.lat)
	st0, st1 := r.before.stats, r.after.stats
	hits, misses := st1.BTLBHits-st0.BTLBHits, st1.BTLBMisses-st0.BTLBMisses
	r.checkErr = r.wl.check(counts{
		ops:          len(r.lat),
		btlbHitRate:  ratio(float64(hits), float64(hits+misses)),
		missServices: st1.MissInterrupts - st0.MissInterrupts,
		fabricWrites: r.after.fabric.MirroredWrites - r.before.fabric.MirroredWrites,
		casFirstHits: st1.CASFetchMisses - st0.CASFetchMisses,
	})
	return nil
}

// reference builds the virtio twin of the image shape and replays the first
// ops of every ref client's measured sequence on it. NeSC's time for the same
// ops was stamped during the measured phase.
func (r *pass) reference(ctx *nesc.Ctx) error {
	id := r.spans.begin("reference")
	defer r.spans.end(id)
	saved := r.steps
	r.steps = make(map[string]stepTime) // twin build is not set-up
	w, err := r.wl.build(r, ctx, r.pl, nesc.BackendVirtio, ".twin")
	r.steps = saved
	if err != nil {
		return fmt.Errorf("virtio twin: %w", err)
	}
	v0, t0 := ctx.Now(), time.Now()
	err = r.runClients(ctx, w, phaseReference)
	r.refWall = time.Since(t0)
	for _, c := range r.pl.clients {
		if c.ref {
			r.refElapsed += c.refAt - v0
		}
	}
	return err
}

// opsIn is the part of c's plan a phase issues.
func (r *pass) opsIn(ph phase, c *client) []op {
	switch {
	case ph == phaseWarm:
		return c.warm
	case ph == phaseMeasured:
		return c.ops
	case c.ref:
		return c.ops[:r.wl.prefixLen(c)]
	}
	return nil
}

// runClients drives every client's ops of one phase to completion. Groups
// run concurrently, each after its boot hook; a lone client runs inline on
// the caller's simulated process, so qd 1 really is one process.
func (r *pass) runClients(ctx *nesc.Ctx, w *world, ph phase) error {
	var groups [][]*client
	for _, c := range r.pl.clients {
		if len(r.opsIn(ph, c)) == 0 {
			continue
		}
		for len(groups) <= c.group {
			groups = append(groups, nil)
		}
		groups[c.group] = append(groups[c.group], c)
	}
	var tasks []*nesc.Task
	for g, cs := range groups {
		if len(cs) == 0 {
			continue
		}
		runGroup := func(cx *nesc.Ctx) error {
			if g > 0 && ph == phaseMeasured {
				if err := r.wl.boot(r, cx, w, g); err != nil {
					return err
				}
			}
			if len(cs) == 1 {
				r.runClient(cx, w, cs[0], ph)
				return nil
			}
			var inner []*nesc.Task
			for _, c := range cs {
				inner = append(inner, cx.Go("client", func(cy *nesc.Ctx) error {
					r.runClient(cy, w, c, ph)
					return nil
				}))
			}
			return waitAll(cx, inner)
		}
		if len(groups) == 1 {
			return runGroup(ctx)
		}
		tasks = append(tasks, ctx.Go("group", runGroup))
	}
	return waitAll(ctx, tasks)
}

func waitAll(ctx *nesc.Ctx, tasks []*nesc.Task) error {
	var first error
	for _, t := range tasks {
		if err := t.Wait(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runClient is the closed loop: stamp on the harness side, one call into the
// VM, verify, next op. Errors and oracle mismatches count as failed ops and
// the loop goes on; a workload never stops at the first failure.
func (r *pass) runClient(ctx *nesc.Ctx, w *world, c *client, ph phase) {
	vm, d := w.vms[c.vm], w.disks[c.vm]
	ops := r.opsIn(ph, c)
	var maxSize int32
	for _, o := range ops {
		maxSize = max(maxSize, o.size)
	}
	buf := make([]byte, maxSize)
	record := ph == phaseMeasured
	prefix := r.wl.prefixLen(c)
	var harness time.Duration
	for i, o := range ops {
		p := buf[:o.size]
		if o.write {
			h0 := time.Now()
			d.stamp(p, o.off)
			harness += time.Since(h0)
		}
		spanID := -1
		if record && i%1024 == 0 {
			spanID = r.spans.begin("op")
		}
		v0 := ctx.Now()
		var err error
		if o.write {
			err = vm.WriteAt(ctx, p, o.off)
		} else {
			err = vm.ReadAt(ctx, p, o.off)
		}
		if record {
			c.lat[i] = int64(ctx.Now() - v0)
		}
		r.spans.end(spanID)
		ok := err == nil
		if ok && !o.write {
			h0 := time.Now()
			if r.inject && record {
				p[len(p)/2] ^= 0x40
				r.inject = false
			}
			ok = d.verify(p, o.off)
			harness += time.Since(h0)
		}
		r.attempted++
		if !ok {
			if r.failed++; r.failed <= 5 {
				fmt.Printf("# failed op: vm %d off %d size %d write %v err %v\n", c.vm, o.off, o.size, o.write, err)
			}
		}
		if i+1 == prefix {
			switch ph {
			case phaseMeasured:
				c.prefixAt = ctx.Now()
			case phaseReference:
				c.refAt = ctx.Now()
			}
		}
	}
	if record {
		r.harness += harness
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is nearest-rank over sorted samples.
func percentile(sorted []int64, p float64) int64 {
	i := int(float64(len(sorted))*p+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// digest hashes every virtual statistic the pass read, so a change that only
// speeds up the simulator can prove it changed nothing modelled.
func (r *pass) digest() string {
	h := sha256.New()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, c := range r.pl.clients {
		for _, l := range c.lat {
			put(l)
		}
		put(int64(c.prefixAt))
		put(int64(c.refAt))
	}
	put(int64(r.simElapsed))
	fmt.Fprintf(h, "%+v %+v", r.after.stats, r.after.fabric)
	return hex.EncodeToString(h.Sum(nil)[:8])
}
