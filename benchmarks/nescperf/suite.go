package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// report is the all-workload result: what -out writes, -compare reads and
// benchmarks/baseline.json holds.
type report struct {
	Meta      reportMeta                 `json:"meta"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type reportMeta struct {
	Machine string         `json:"machine"`
	NProc   int            `json:"nproc"`
	Go      string         `json:"go"`
	Seed    int64          `json:"seed"`
	Seconds int            `json:"seconds"`
	Reps    int            `json:"reps"`
	Smoke   bool           `json:"smoke,omitempty"`
	Ops     map[string]int `json:"ops"`
}

type workloadReport struct {
	SimDigest string              `json:"sim_digest"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Correct   bool                `json:"correct"`
	EndToEnd  map[string]*samples `json:"end_to_end"`
	PerLayer  map[string]float64  `json:"per_layer"`
}

// samples are one end-to-end metric's values over the repetitions.
type samples struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

// quartiles uses the same rule as Python's statistics.quantiles(v, n=4)
// (exclusive method), which is what the benchmark contract's spread is
// defined with. Fewer than two values have no spread.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

func (s *samples) summarise() {
	s.N = len(s.Values)
	s.Q1, s.Median, s.Q3 = quartiles(s.Values)
}

// spread is the interquartile range as a share of the median.
func (s *samples) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// childOutput is what one child printed: the contract's result line plus the
// "# key value" facts before it.
type childOutput struct {
	result
	facts map[string]string
}

func runChildProcess(o options, wl *workload, trace int) (*childOutput, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", wl.name, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(trace),
		"-probe", o.probe.String(), "-tracedir", o.traceDir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	co, err := parseChild(out)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("%s --trace %d: %w", wl.name, trace, err), runErr)
	}
	// A child that printed a result but exited non-zero found failed ops or a
	// failed check; the result says so and the report carries it.
	return co, nil
}

func parseChild(out []byte) (*childOutput, error) {
	co := &childOutput{facts: map[string]string{}}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			if k, v, ok := strings.Cut(rest, " "); ok {
				co.facts[k] = v
			}
		} else if line != "" {
			last = line
		}
	}
	if last == "" {
		return nil, errors.New("child printed no result line")
	}
	if err := json.Unmarshal([]byte(last), &co.result); err != nil {
		return nil, fmt.Errorf("bad result line: %w", err)
	}
	return co, nil
}

// runSuite runs every workload: o.reps untraced children for the end-to-end
// metrics, then one traced child for the per-layer ones. Children run
// strictly one after another so each has the machine to itself.
func runSuite(o options) (*report, error) {
	host, _ := os.Hostname()
	rep := &report{
		Meta: reportMeta{
			Machine: fmt.Sprintf("%s %s/%s", host, runtime.GOOS, runtime.GOARCH), NProc: runtime.NumCPU(),
			Go: runtime.Version(), Seed: o.seed, Seconds: o.seconds, Reps: o.reps, Smoke: o.smoke,
			Ops: map[string]int{},
		},
		Workloads: map[string]*workloadReport{},
	}
	for _, wl := range workloads {
		wr := &workloadReport{Correct: true, EndToEnd: map[string]*samples{}, PerLayer: map[string]float64{}}
		rep.Workloads[wl.name] = wr
		rep.Meta.Ops[wl.name] = o.opsFor(wl)
		for i := 0; i < o.reps; i++ {
			fmt.Fprintf(os.Stderr, "nescperf: %s rep %d/%d\n", wl.name, i+1, o.reps)
			co, err := runChildProcess(o, wl, 0)
			if err != nil {
				return nil, err
			}
			if d := co.facts["sim_digest"]; wr.SimDigest == "" {
				wr.SimDigest = d
			} else if d != wr.SimDigest {
				wr.Correct = false
				fmt.Fprintf(os.Stderr, "nescperf: %s: sim_digest %s then %s on one seed\n", wl.name, wr.SimDigest, d)
			}
			wr.add(co)
			for _, d := range endToEnd {
				s := wr.EndToEnd[d.Name]
				if s == nil {
					s = &samples{Unit: d.Unit}
					wr.EndToEnd[d.Name] = s
				}
				s.Values = append(s.Values, co.Metrics[d.Name].Value)
			}
		}
		for _, s := range wr.EndToEnd {
			s.summarise()
		}
		fmt.Fprintf(os.Stderr, "nescperf: %s traced\n", wl.name)
		co, err := runChildProcess(o, wl, 1)
		if err != nil {
			return nil, err
		}
		wr.add(co)
		for name, m := range co.Metrics {
			wr.PerLayer[name] = m.Value
		}
	}
	return rep, nil
}

func (wr *workloadReport) add(co *childOutput) {
	wr.Attempted += co.Attempted
	wr.Failed += co.Failed
	wr.Correct = wr.Correct && co.Correct
}

// verdict is the all-workload run's exit status: any failed op, failed
// per-workload check, or lost cross-workload discriminator is an error.
func (rep *report) verdict() error {
	var errs []error
	for _, wl := range workloads {
		if wr := rep.Workloads[wl.name]; !wr.Correct || wr.Failed > 0 {
			errs = append(errs, fmt.Errorf("%s: %d of %d ops failed, correct=%v", wl.name, wr.Failed, wr.Attempted, wr.Correct))
		}
	}
	small := rep.Workloads["raw-small-qd1"].PerLayer["core.chunks_per_op"]
	large := rep.Workloads["raw-stream-large"].PerLayer["core.chunks_per_op"]
	if large < 8*small {
		errs = append(errs, fmt.Errorf("core.chunks_per_op: raw-stream-large %.2f is not 8x raw-small-qd1 %.2f", large, small))
	}
	return errors.Join(errs...)
}

func (rep *report) print(w io.Writer) {
	m := rep.Meta
	fmt.Fprintf(w, "nescperf: %s, nproc %d, %s, seed %d, %d s runs, %d reps\n\n", m.Machine, m.NProc, m.Go, m.Seed, m.Seconds, m.Reps)
	for _, wl := range workloads {
		wr := rep.Workloads[wl.name]
		fmt.Fprintf(w, "== %s  ops %d  failed %d/%d  sim_digest %s\n", wl.name, m.Ops[wl.name], wr.Failed, wr.Attempted, wr.SimDigest)
		fmt.Fprintf(w, "  %-24s %14s %-6s %14s %14s %3s\n", "end-to-end", "median", "unit", "q1", "q3", "n")
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-24s %14.6g %-6s %14.6g %14.6g %3d\n", d.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(w, "  %-40s %14s %s\n", "per-layer (traced run)", "value", "unit")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
		}
		fmt.Fprintln(w)
	}
}

func (rep *report) save(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, wl := range workloads {
		if rep.Workloads[wl.name] == nil {
			return nil, fmt.Errorf("%s: no workload %s", path, wl.name)
		}
	}
	return rep, nil
}

// Verdicts of one compared (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares b against base a for one end-to-end metric. worse: b's
// median is worse than a's by more than the bound. unresolved: it is not,
// but either side's spread is wider than the bound, so "no change" cannot be
// told from "a change hidden in noise" — unless every run of b reads better
// than every run of a.
func judge(d metricDef, a, b *samples) string {
	change := ratio(b.Median-a.Median, a.Median)
	if d.Better == higher {
		change = -change
	}
	if change > d.Bound {
		return verdictWorse
	}
	if max(a.spread(), b.spread()) > d.Bound {
		allBetter := slices.Max(b.Values) < slices.Min(a.Values)
		if d.Better == higher {
			allBetter = slices.Min(b.Values) > slices.Max(a.Values)
		}
		if !allBetter {
			return verdictUnresolved
		}
	}
	return verdictOK
}

// printComparison prints one row per (workload, end-to-end metric): both
// medians with quartiles, b/a with its base, and the verdict; then the
// per-layer values that moved by more than 5 %.
func printComparison(w io.Writer, a, b *report) {
	fmt.Fprintf(w, "%-18s %-22s %30s %30s %18s %s\n", "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "b/a (base a)", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				continue
			}
			fmt.Fprintf(w, "%-18s %-22s %30s %30s %18s %s\n", wl.name, d.Name, sa.cell(), sb.cell(),
				fmt.Sprintf("%.4f (%.5g %s)", ratio(sb.Median, sa.Median), sa.Median, d.Unit), judge(d, sa, sb))
		}
		if wa.SimDigest != wb.SimDigest {
			fmt.Fprintf(w, "%-18s sim_digest differs: %s -> %s (the modelled behaviour changed)\n", wl.name, wa.SimDigest, wb.SimDigest)
		}
		for _, d := range perLayer {
			x, y := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			if x != y && (x == 0 || y/x > 1.05 || y/x < 0.95) {
				fmt.Fprintf(w, "%-18s   layer %-38s %14.6g -> %-14.6g %s\n", wl.name, d.Name, x, y, d.Unit)
			}
		}
	}
}

func (s *samples) cell() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3)
}

// checkRepeat runs the whole benchmark twice on one seed. Every host-clock
// end-to-end median must agree within its bound in both directions, and every
// virtual-clock metric and digest must be identical. The first set is the
// report -out saves.
func checkRepeat(o options) error {
	a, err := runSuite(o)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := a.save(o.out); err != nil {
			return err
		}
	}
	b, err := runSuite(o)
	if err != nil {
		return err
	}
	a.print(os.Stdout)
	printComparison(os.Stdout, a, b)
	var errs []error
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa.SimDigest != wb.SimDigest {
			errs = append(errs, fmt.Errorf("%s: sim_digest %s vs %s", wl.name, wa.SimDigest, wb.SimDigest))
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if d.virtual {
				if !slices.Equal(sa.Values, sb.Values) {
					errs = append(errs, fmt.Errorf("%s %s: virtual-clock values differ: %v vs %v", wl.name, d.Name, sa.Values, sb.Values))
				}
			} else if judge(d, sa, sb) == verdictWorse || judge(d, sb, sa) == verdictWorse {
				errs = append(errs, fmt.Errorf("%s %s: medians %.5g and %.5g differ by more than %.0f %%", wl.name, d.Name, sa.Median, sb.Median, 100*d.Bound))
			}
		}
		for _, d := range perLayer {
			if d.virtual && wa.PerLayer[d.Name] != wb.PerLayer[d.Name] {
				errs = append(errs, fmt.Errorf("%s %s: %v vs %v", wl.name, d.Name, wa.PerLayer[d.Name], wb.PerLayer[d.Name]))
			}
		}
	}
	if len(errs) == 0 {
		fmt.Println("check-repeat: both sets agree: host-clock medians within bounds, virtual-clock metrics and digests identical")
	}
	return errors.Join(append(errs, a.verdict(), b.verdict())...)
}
