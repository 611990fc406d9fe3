// Command nescbench regenerates the tables and figures of the NeSC paper
// (MICRO 2016) from the simulated platform, plus the ablations documented in
// DESIGN.md.
//
// Usage:
//
//	nescbench -list
//	nescbench -exp fig9
//	nescbench -exp all [-csv]
//	nescbench -exp mq -json results
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nesc/internal/bench"
	"nesc/internal/metrics"
	"nesc/internal/slo"
	"nesc/internal/stats"
	"nesc/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list), or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonDir := flag.String("json", "", "also write <dir>/<exp>.json per experiment (empty: disabled)")
	metricsOut := flag.String("metrics", "", "write Prometheus text-format metrics accumulated across the run to this file")
	traceJSON := flag.String("trace-json", "", "write the last recorded request spans as Chrome trace-event JSON to this file")
	spanN := flag.Int("spans", 4096, "request spans to retain for -trace-json")
	attribOut := flag.String("attrib", "", "write the per-{vf,op} latency attribution report (budget table + p99 explainer) as JSON to this file")
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-12s %s\n", e.Name, e.Label())
		}
		return
	}

	cfg := bench.DefaultConfig()
	// The telemetry bundle rides along in the config: every platform an
	// experiment builds hands it to all its layers. Counters and histograms
	// accumulate across platforms; live gauges track the last platform built.
	tel := &cfg.Tel
	if *metricsOut != "" {
		tel.Metrics = metrics.New()
	}
	if *traceJSON != "" {
		tel.Spans = trace.NewSpanRecorder(*spanN)
	}
	if *attribOut != "" {
		tel.Attrib = slo.NewAttributor(4096)
	}
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.All()
	} else {
		e, err := bench.ByName(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}

	// Each experiment is an independent single-threaded simulation, so they
	// run one per CPU — unless a sink is armed: the sinks are shared across
	// experiments and single-threaded, and what they accumulate depends on the
	// order. Output is in registry order either way.
	workers := runtime.GOMAXPROCS(0)
	if tel.Metrics != nil || tel.Spans != nil || tel.Attrib != nil {
		workers = 1
	}
	type result struct {
		tables []*stats.Table
		err    error
		took   time.Duration
	}
	results := make([]chan result, len(exps))
	for i := range results {
		results[i] = make(chan result, 1)
	}
	next := make(chan int, len(exps)) // every index, queued up front
	for i := range exps {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range next {
				start := time.Now()
				tables, err := exps[i].Run(cfg)
				results[i] <- result{tables, err, time.Since(start)}
			}
		}()
	}
	for i, e := range exps {
		r := <-results[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.Name, r.err)
			os.Exit(1)
		}
		if *csv {
			for _, t := range r.tables {
				fmt.Print(t.CSV())
			}
		} else {
			fmt.Print(bench.Render(r.tables))
		}
		if *jsonDir != "" {
			out, err := bench.JSON(r.tables)
			if err == nil {
				err = os.MkdirAll(*jsonDir, 0o755)
			}
			if err == nil {
				err = os.WriteFile(filepath.Join(*jsonDir, e.Name+".json"), out, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s: %v\n", e.Name, err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", e.Name, r.took.Round(time.Millisecond))
	}
	if reg := tel.Metrics; reg != nil {
		if err := writeFile(*metricsOut, reg.WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "-metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if spans := tel.Spans; spans != nil {
		if err := writeFile(*traceJSON, spans.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "-trace-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s (load at ui.perfetto.dev)\n", spans.Total, *traceJSON)
	}
	if attrib := tel.Attrib; attrib != nil {
		if err := writeFile(*attribOut, attrib.WriteReport); err != nil {
			fmt.Fprintf(os.Stderr, "-attrib: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote latency attribution for %d {vf,op} rows to %s\n", len(attrib.Rows()), *attribOut)
		// The one-line verdict: the row with the worst tail, and the segment
		// that separates its tail from its median.
		var worst slo.Explanation
		for _, ex := range attrib.Explanations() {
			if ex.TailNs > worst.TailNs {
				worst = ex
			}
		}
		if worst.Requests > 0 {
			fmt.Fprintf(os.Stderr, "p99 verdict [%s]: %s\n", *exp, worst)
		}
	}
}

// writeFile streams fn's output into path.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
