package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"nesc"
)

// span is one harness-side interval: the benchmark's own record of when it
// called into the system, kept in memory until the traced child ends.
type span struct {
	name       string
	start, end time.Duration // since the log's origin
	parent     int           // index of the enclosing span, -1 at top level
}

// spanLog collects spans for one traced pass. A nil *spanLog is the disabled
// log untraced passes use: begin and end cost one branch.
type spanLog struct {
	workload string
	origin   time.Time
	spans    []span
	// open is the stack of spans begun by the main flow. Whatever begins
	// directly under "measured" (per-op spans, fleet boot steps) comes from
	// concurrent clients that interleave rather than nest: it parents to the
	// measured span and is not pushed.
	open []int
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.origin), parent: parent})
	id := len(l.spans) - 1
	if parent < 0 || l.spans[parent].name != "measured" {
		l.open = append(l.open, id)
	}
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].end = time.Since(l.origin)
	if n := len(l.open); n > 0 && l.open[n-1] == id {
		l.open = l.open[:n-1]
	}
}

// writeChrome writes the spans as a Chrome trace-event file (load it at
// ui.perfetto.dev). Timestamps are host wall-clock microseconds.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": l.workload},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// registry is a parsed Simulation.WriteMetricsJSON snapshot: every counter
// and gauge family summed over its series, every histogram family merged.
type registry struct {
	values map[string]float64
	hists  map[string]*histogram
}

type histogram struct {
	count   int64
	sum     float64
	buckets map[int64]int64 // inclusive upper bound -> count
}

func readRegistry(s *nesc.Simulation) registry {
	var buf bytes.Buffer
	var fams []struct {
		Name   string
		Series []struct {
			Value     *float64
			Histogram *struct {
				Count   int64
				Sum     float64
				Buckets map[string]int64
			}
		}
	}
	reg := registry{values: map[string]float64{}, hists: map[string]*histogram{}}
	if err := s.WriteMetricsJSON(&buf); err != nil {
		return reg
	}
	if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
		return reg
	}
	for _, f := range fams {
		for _, sr := range f.Series {
			if sr.Value != nil {
				reg.values[f.Name] += *sr.Value
			}
			if h := sr.Histogram; h != nil {
				m := reg.hists[f.Name]
				if m == nil {
					m = &histogram{buckets: map[int64]int64{}}
					reg.hists[f.Name] = m
				}
				m.count += h.Count
				m.sum += h.Sum
				for le, n := range h.Buckets {
					if bound, err := strconv.ParseInt(le, 10, 64); err == nil {
						m.buckets[bound] += n
					}
				}
			}
		}
	}
	return reg
}

// p50 is the upper bound of the bucket holding the median (0 when empty).
func (h *histogram) p50() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	var bounds []int64
	for b := range h.buckets {
		bounds = append(bounds, b)
	}
	slices.Sort(bounds)
	var cum int64
	for _, b := range bounds {
		cum += h.buckets[b]
		if 2*cum >= h.count {
			return float64(b)
		}
	}
	return float64(bounds[len(bounds)-1])
}

// layerOf maps a Go function name from the CPU profile to the layer whose
// host_self_share it counts toward ("" for none: the harness itself, the
// public nesc package glue, other standard-library packages).
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "nesc/internal/"):
		layer := strings.TrimPrefix(pkg, "nesc/internal/")
		switch layer {
		case "metrics", "trace", "slo", "stats":
			return "telemetry"
		}
		return layer
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync" || strings.HasPrefix(pkg, "sync/"):
		return "runtime"
	}
	return ""
}

// hostShares summarises the profile's flat samples by layer with
// `go tool pprof -top`. When the tool cannot run it returns an error and the
// caller reports the shares absent; they are never estimated.
func hostShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		total += ms
		flat[layerOf(f[5])] += ms
	}
	for k := range flat { // a profile too short to hold a sample attributes nothing
		if total == 0 {
			break
		}
		flat[k] /= total
	}
	return flat, nil
}
