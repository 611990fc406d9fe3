// Command nescperf is the repository's two-clock benchmark: it measures what
// the modelled controller delivers in virtual time and what the simulator
// costs to produce it in host time, end to end and layer by layer.
//
// With --workload it runs that one workload once and prints the result as
// one JSON object on the last line of standard output (the form
// BENCHMARK.json's command is driven in). Without it, it re-executes itself
// once per workload and repetition, strictly one child at a time, and
// prints every metric of every workload with medians and quartiles.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	inject   bool // smoke test only: corrupt the first measured read before the oracle sees it
	probe    time.Duration
	traceDir string

	reps        int
	out         string
	checkRepeat bool
	compare     bool
	printJSON   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as JSON on the last line")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same op sequences")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase; fixes the op count (ops = rate x seconds)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	flag.BoolVar(&o.smoke, "smoke", false, "a few hundred ops per workload, one set-up sample, millisecond probes")
	flag.DurationVar(&o.probe, "probe", 0, "time spent in each layer probe (default 100ms with --workload, so a traced run fits the driver's budget; 1s in all-workload mode)")
	flag.StringVar(&o.traceDir, "tracedir", filepath.Join(".bench_build", "nescperf-trace"), "where a traced run writes cpu.pprof and its trace files")
	flag.IntVar(&o.reps, "reps", 3, "untraced repetitions per workload (all-workload mode)")
	flag.StringVar(&o.out, "out", "", "also write the all-workload report (with -check-repeat: the first of the two) to this JSON file")
	flag.BoolVar(&o.checkRepeat, "check-repeat", false, "run everything twice on one seed; fail unless the two agree")
	flag.BoolVar(&o.compare, "compare", false, "compare two report files: nescperf -compare a.json b.json")
	flag.BoolVar(&o.printJSON, "print-benchmark-json", false, "print BENCHMARK.json as generated from the metric tables")
	flag.Parse()
	if err := dispatch(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "nescperf:", err)
		os.Exit(1)
	}
}

func dispatch(o options, args []string) error {
	if o.seconds < 1 || o.reps < 1 {
		return errors.New("-seconds and -reps must be at least 1")
	}
	if o.probe == 0 {
		o.probe = time.Second
		if o.workload != "" {
			o.probe = 100 * time.Millisecond
		}
	}
	switch {
	case o.printJSON:
		b, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case o.compare:
		if len(args) != 2 {
			return errors.New("-compare needs two report files")
		}
		a, err := loadReport(args[0])
		if err != nil {
			return err
		}
		b, err := loadReport(args[1])
		if err != nil {
			return err
		}
		printComparison(os.Stdout, a, b)
		return nil
	case o.workload != "":
		return runChild(o)
	case o.checkRepeat:
		return checkRepeat(o)
	}
	rep, err := runSuite(o)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if o.out != "" {
		if err := rep.save(o.out); err != nil {
			return err
		}
	}
	return rep.verdict()
}

func (o options) opsFor(wl *workload) int {
	if o.smoke {
		return wl.smokeOps
	}
	return wl.opsPerSecond * o.seconds
}

// setupSamples is how many times a child builds the platform to take the
// median set-up time.
func (o options) setupSamples() int {
	if o.smoke {
		return 1
	}
	return 5
}

// measurement is what one child measured: the values of one metric table plus
// the correctness facts of the contract's result line.
type measurement struct {
	defs              []metricDef
	values            map[string]float64
	attempted, failed int64
	checkErr          error
	digest            string
	note              string
}

// runChild runs one workload in this process and prints the contract's
// result line. Lines before it that start with "# " carry facts the parent
// wants (the digest) and explanations for a human.
func runChild(o options) error {
	wl := workloadByName(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var m *measurement
	var err error
	if o.trace == 0 {
		m, err = measureEndToEnd(o, wl)
	} else {
		m, _, _, err = measureTraced(o, wl)
	}
	if err != nil {
		return err
	}
	fmt.Printf("# workload %s seed %d %s\n", wl.name, o.seed, m.note)
	fmt.Printf("# sim_digest %s\n", m.digest)
	return m.emit()
}

// measureEndToEnd is the --trace 0 child: one pass with every telemetry
// layer off, then extra set-ups for the setup_s median.
func measureEndToEnd(o options, wl *workload) (*measurement, error) {
	singleP()
	r := newPass(wl, o.seed, o.opsFor(wl))
	r.inject = o.inject
	if err := r.run(); err != nil {
		return nil, err
	}
	// The extra set-ups come after the measured phase so they cannot touch
	// its peak RSS or heap state.
	setups := []time.Duration{r.setup}
	for len(setups) < o.setupSamples() {
		d, err := setupOnly(wl, r.pl)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	return &measurement{
		defs: endToEnd, values: endToEndValues(r, setups),
		attempted: r.attempted, failed: r.failed,
		checkErr: errors.Join(r.checkErr, r.verifyShare()), digest: r.digest(),
		note: fmt.Sprintf("ops %d clients %d verify_frac %.4f", len(r.lat), len(r.pl.clients), ratio(float64(r.harness), float64(r.measured.wall))),
	}, nil
}

// measureTraced is the --trace 1 child: the workload at half length twice,
// first with every telemetry layer off (pass u), then with metrics, spans,
// attribution, a CPU profile and harness spans on (pass t). The difference
// between the two is the tracing overhead; their digests must be equal
// because telemetry only reads the virtual clock.
func measureTraced(o options, wl *workload) (m *measurement, u, t *pass, err error) {
	singleP()
	// Probes first, while the heap is still small: their fixtures are built
	// and timed before any platform has lived in this process.
	probe := o.probe
	if o.smoke {
		probe = 5 * time.Millisecond
	}
	releaseGC() // the probes pay for their garbage like any other code
	probed := runProbes(probe)
	half := max(o.opsFor(wl)/2, 1)
	dir := filepath.Join(o.traceDir, wl.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	u = newPass(wl, o.seed, half)
	if err := u.run(); err != nil {
		return nil, nil, nil, err
	}
	t = newPass(wl, o.seed, half)
	t.traced, t.inject = true, o.inject
	t.spans = newSpanLog(wl.name)
	t.profile = filepath.Join(dir, "cpu.pprof")
	if err := t.run(); err != nil {
		return nil, nil, nil, err
	}
	if err := t.spans.writeChrome(filepath.Join(dir, "harness_trace.json")); err != nil {
		return nil, nil, nil, err
	}
	dev, err := os.Create(filepath.Join(dir, "device_trace.json"))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := errors.Join(t.sim.WriteTraceJSON(dev), dev.Close()); err != nil {
		return nil, nil, nil, err
	}
	shares, err := hostShares(t.profile)
	if err != nil {
		return nil, nil, nil, err
	}
	checkErr := errors.Join(u.checkErr, t.checkErr, u.verifyShare())
	du, dt := u.digest(), t.digest()
	if du != dt {
		checkErr = errors.Join(checkErr, fmt.Errorf("telemetry moved the virtual clock: digest %s untraced, %s traced", du, dt))
	}
	return &measurement{
		defs: perLayer, values: perLayerValues(u, t, shares, probed),
		attempted: u.attempted + t.attempted, failed: u.failed + t.failed,
		checkErr: checkErr, digest: dt,
		note: fmt.Sprintf("ops %d (half length, twice) traces in %s", len(t.lat), dir),
	}, u, t, nil
}

// verifyShare fails a pass whose oracle and op dispatch took 5 % or more of
// the measured phase: then the harness is part of what is measured.
func (r *pass) verifyShare() error {
	if f := ratio(float64(r.harness), float64(r.measured.wall)); f >= 0.05 {
		return fmt.Errorf("harness.verify_frac %.3f >= 0.05", f)
	}
	return nil
}

// emit prints the result line. An incorrect run still prints it, then exits
// non-zero.
func (m *measurement) emit() error {
	if m.checkErr != nil {
		fmt.Printf("# check failed: %v\n", m.checkErr)
	}
	correct := m.failed == 0 && m.checkErr == nil
	line, err := encodeResult(m.defs, m.values, correct, m.attempted, m.failed)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%d of %d ops failed; checks: %v", m.failed, m.attempted, m.checkErr)
	}
	return nil
}

// benchmarkJSON renders BENCHMARK.json from the workload and metric tables.
func benchmarkJSON() ([]byte, error) {
	type wlEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wlEntry   `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // bound is 0 and so left out
	}{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: 10,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wlEntry{w.name, fmt.Sprintf("%s (%d ops per --seconds)", w.why, w.opsPerSecond)})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
