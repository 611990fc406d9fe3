package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"nesc/internal/sim"
	"nesc/internal/stats"
)

// Causal request attribution: every request carries a fixed vector of
// per-segment durations accumulated as it moves through the pipeline
// (queue-wait, translate, DTU-wait, medium, retry, ...), and the attributor
// folds finished vectors into a per-{vf,op} latency budget table plus a
// bounded reservoir of whole-request profiles. The reservoir is what powers
// the p99 explainer: it diffs the mean segment profile of the tail requests
// against the median band's and names the segment whose growth dominates the
// tail — "vf 3's p99 is queue-wait", not just "vf 3's p99 moved".

// Segment indices of a request's attribution vector.
const (
	SegFetch      = iota // descriptor fetch + decode
	SegQueue             // vLBA queue residence
	SegTranslate         // BTLB lookup / tree walk / miss service
	SegDTUWait           // pLBA queue residence
	SegMedium            // DMA channel service (medium + PCIe), retries excluded
	SegRetry             // medium/integrity retry rounds
	SegAdmission         // admission-control fast-fail or driver busy-backoff
	SegFabricWait        // mirror-client overhead beyond the winning leg
	SegOther             // residual wall time (completion write, mux, overlap slack)
	NumSegments
)

var segmentNames = [NumSegments]string{
	"fetch", "queue_wait", "translate", "dtu_wait", "medium",
	"retry", "admission", "fabric_wait", "other",
}

// SegmentName renders a segment index ("" when out of range).
func SegmentName(i int) string {
	if i < 0 || i >= NumSegments {
		return ""
	}
	return segmentNames[i]
}

// Segments is one request's per-segment duration vector. A fixed array, so
// carrying one inside every request costs no allocation.
type Segments [NumSegments]sim.Time

// cellKey identifies one budget-table row.
type cellKey struct {
	vf int
	op string
}

// profile is one whole-request sample retained for the explainer.
type profile struct {
	reqID uint64
	total sim.Time
	segs  Segments
}

// cell is one {vf,op} row: running segment sums plus a profile reservoir.
type cell struct {
	key     cellKey
	count   int64
	errors  int64
	totalNs int64
	segNs   [NumSegments]int64

	prof stats.Ring[profile] // the most recent profiles
}

// Attributor folds finished request vectors into the budget table. A nil
// *Attributor is a valid disabled sink. Record is one map hit plus array
// stores under a mutex — no steady-state allocation (a row allocates once,
// on its first request).
type Attributor struct {
	mu        sync.Mutex
	reservoir int
	cells     map[cellKey]*cell
}

// NewAttributor builds an attributor whose rows each retain the last
// reservoir request profiles (min 16) for tail analysis.
func NewAttributor(reservoir int) *Attributor {
	if reservoir < 16 {
		reservoir = 16
	}
	return &Attributor{reservoir: reservoir, cells: make(map[cellKey]*cell)}
}

// lookup returns the row for {vf,op}, creating it if fresh. Caller holds a.mu.
func (a *Attributor) lookup(vf int, op string) (c *cell, opened bool) {
	k := cellKey{vf: vf, op: op}
	if c = a.cells[k]; c != nil {
		return c, false
	}
	c = &cell{key: k, prof: stats.NewRing[profile](a.reservoir)}
	a.cells[k] = c
	return c, true
}

// Record folds one finished request into its row and reports whether this
// call opened the row. Nil-safe.
func (a *Attributor) Record(vf int, op string, reqID uint64, total sim.Time, ok bool, segs Segments) (opened bool) {
	if a == nil {
		return false
	}
	a.mu.Lock()
	c, opened := a.lookup(vf, op)
	c.count++
	if !ok {
		c.errors++
	}
	c.totalNs += int64(total)
	for i := 0; i < NumSegments; i++ {
		c.segNs[i] += int64(segs[i])
	}
	c.prof.Put(profile{reqID: reqID, total: total, segs: segs})
	a.mu.Unlock()
	return opened
}

// AddSegment credits a duration to one segment of a row without a request
// profile — for time observed outside the device pipeline (a guest driver's
// busy-backoff, fabric steering overhead on reads served cache-side) — and
// reports whether this call opened the row. Nil-safe.
func (a *Attributor) AddSegment(vf int, op string, seg int, d sim.Time) (opened bool) {
	if a == nil || seg < 0 || seg >= NumSegments || d <= 0 {
		return false
	}
	a.mu.Lock()
	c, opened := a.lookup(vf, op)
	c.segNs[seg] += int64(d)
	a.mu.Unlock()
	return opened
}

// Row is one externally visible budget-table row.
type Row struct {
	VF       int
	Op       string
	Requests int64
	Errors   int64
	TotalNs  int64
	SegNs    [NumSegments]int64
}

// Share reports segment seg's fraction of the row's summed segment time.
func (r Row) Share(seg int) float64 {
	var sum int64
	for _, v := range r.SegNs {
		sum += v
	}
	if sum == 0 || seg < 0 || seg >= NumSegments {
		return 0
	}
	return float64(r.SegNs[seg]) / float64(sum)
}

func (c *cell) row() Row {
	return Row{VF: c.key.vf, Op: c.key.op, Requests: c.count, Errors: c.errors, TotalNs: c.totalNs, SegNs: c.segNs}
}

// Row snapshots the {vf,op} row; the zero Row when there is none.
func (a *Attributor) Row(vf int, op string) Row {
	if a == nil {
		return Row{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if c := a.cells[cellKey{vf: vf, op: op}]; c != nil {
		return c.row()
	}
	return Row{}
}

// Rows snapshots the budget table sorted by (vf, op).
func (a *Attributor) Rows() []Row {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]Row, 0, len(a.cells))
	for _, c := range a.cells {
		out = append(out, c.row())
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].VF != out[j].VF {
			return out[i].VF < out[j].VF
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// Explanation is the p99 explainer's verdict for one row: which segment's
// growth dominates the tail, with the evidence.
type Explanation struct {
	VF       int
	Op       string
	Requests int64 // profiles examined (reservoir-bounded)

	MedianNs int64 // mean total of the median band
	TailNs   int64 // mean total of the tail band

	Dominant        string  // segment whose tail-vs-median growth is largest
	DominantDeltaNs int64   // that segment's mean growth, tail minus median
	DominantShare   float64 // that segment's share of the tail's summed segments

	TailReqIDs []uint64 // example tail request ids (flight-recorder cross-links)
}

// String renders the verdict on one line (the nescctl -top and make profile
// format).
func (ex Explanation) String() string {
	return fmt.Sprintf("vf=%-3d op=%-12s n=%-6d median=%-8v tail=%-8v dominant=%s (+%v, %2.0f%% of tail)",
		ex.VF, ex.Op, ex.Requests, time.Duration(ex.MedianNs), time.Duration(ex.TailNs),
		ex.Dominant, time.Duration(ex.DominantDeltaNs), 100*ex.DominantShare)
}

// explainProfiles runs the tail-vs-median diff over a profile snapshot.
func explainProfiles(key cellKey, profs []profile) Explanation {
	ex := Explanation{VF: key.vf, Op: key.op, Requests: int64(len(profs))}
	if len(profs) == 0 {
		return ex
	}
	sort.Slice(profs, func(i, j int) bool {
		if profs[i].total != profs[j].total {
			return profs[i].total < profs[j].total
		}
		return profs[i].reqID < profs[j].reqID
	})
	n := len(profs)
	// Tail band: the top 1%, but at least 3 profiles (or everything, for
	// tiny rows). Median band: the middle fifth, at least 1.
	tn := n / 100
	if tn < 3 {
		tn = 3
	}
	if tn > n {
		tn = n
	}
	tail := profs[n-tn:]
	mLo, mHi := n*2/5, n*3/5
	if mHi <= mLo {
		mHi = mLo + 1
	}
	med := profs[mLo:mHi]

	mean := func(band []profile) (total int64, segs [NumSegments]int64) {
		for _, p := range band {
			total += int64(p.total)
			for i := 0; i < NumSegments; i++ {
				segs[i] += int64(p.segs[i])
			}
		}
		total /= int64(len(band))
		for i := range segs {
			segs[i] /= int64(len(band))
		}
		return total, segs
	}
	medTotal, medSegs := mean(med)
	tailTotal, tailSegs := mean(tail)
	ex.MedianNs, ex.TailNs = medTotal, tailTotal

	dom, domDelta := 0, int64(-1)
	var tailSum int64
	for i := 0; i < NumSegments; i++ {
		tailSum += tailSegs[i]
		if delta := tailSegs[i] - medSegs[i]; delta > domDelta {
			dom, domDelta = i, delta
		}
	}
	ex.Dominant = segmentNames[dom]
	ex.DominantDeltaNs = domDelta
	if tailSum > 0 {
		ex.DominantShare = float64(tailSegs[dom]) / float64(tailSum)
	}
	for i := len(tail) - 1; i >= 0 && len(ex.TailReqIDs) < 4; i-- {
		if tail[i].reqID != 0 {
			ex.TailReqIDs = append(ex.TailReqIDs, tail[i].reqID)
		}
	}
	return ex
}

// Explain runs the p99 explainer for one row; ok is false when the row does
// not exist or holds no profiles.
func (a *Attributor) Explain(vf int, op string) (Explanation, bool) {
	if a == nil {
		return Explanation{}, false
	}
	a.mu.Lock()
	c := a.cells[cellKey{vf: vf, op: op}]
	var profs []profile
	if c != nil {
		profs = c.prof.Snapshot()
	}
	a.mu.Unlock()
	if len(profs) == 0 {
		return Explanation{VF: vf, Op: op}, false
	}
	return explainProfiles(cellKey{vf: vf, op: op}, profs), true
}

// Explanations runs the explainer over every row, sorted by (vf, op).
func (a *Attributor) Explanations() []Explanation {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	type snap struct {
		key   cellKey
		profs []profile
	}
	snaps := make([]snap, 0, len(a.cells))
	for k, c := range a.cells {
		if p := c.prof.Snapshot(); len(p) > 0 {
			snaps = append(snaps, snap{key: k, profs: p})
		}
	}
	a.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].key.vf != snaps[j].key.vf {
			return snaps[i].key.vf < snaps[j].key.vf
		}
		return snaps[i].key.op < snaps[j].key.op
	})
	out := make([]Explanation, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, explainProfiles(s.key, s.profs))
	}
	return out
}

// JSON report shapes.
type jsonSegment struct {
	Ns    int64   `json:"ns"`
	Share float64 `json:"share"`
}

type jsonExplain struct {
	MedianNs        int64    `json:"median_ns"`
	TailNs          int64    `json:"tail_ns"`
	Dominant        string   `json:"dominant"`
	DominantDeltaNs int64    `json:"dominant_delta_ns"`
	DominantShare   float64  `json:"dominant_share"`
	TailReqIDs      []uint64 `json:"tail_req_ids,omitempty"`
}

type jsonRow struct {
	VF       int                    `json:"vf"`
	Op       string                 `json:"op"`
	Requests int64                  `json:"requests"`
	Errors   int64                  `json:"errors"`
	MeanNs   int64                  `json:"mean_ns"`
	Segments map[string]jsonSegment `json:"segments"`
	Explain  *jsonExplain           `json:"explain,omitempty"`
}

// WriteReport renders the budget table plus per-row explainer verdicts as an
// indented JSON document. Nil-safe (writes an empty array).
func (a *Attributor) WriteReport(w io.Writer) error {
	rows := a.Rows()
	exps := a.Explanations()
	exByKey := make(map[cellKey]Explanation, len(exps))
	for _, ex := range exps {
		exByKey[cellKey{vf: ex.VF, op: ex.Op}] = ex
	}
	doc := make([]jsonRow, 0, len(rows))
	for _, r := range rows {
		jr := jsonRow{VF: r.VF, Op: r.Op, Requests: r.Requests, Errors: r.Errors,
			Segments: make(map[string]jsonSegment, NumSegments)}
		if r.Requests > 0 {
			jr.MeanNs = r.TotalNs / r.Requests
		}
		for i := 0; i < NumSegments; i++ {
			if r.SegNs[i] == 0 {
				continue
			}
			jr.Segments[segmentNames[i]] = jsonSegment{Ns: r.SegNs[i], Share: r.Share(i)}
		}
		if ex, ok := exByKey[cellKey{vf: r.VF, op: r.Op}]; ok && ex.Requests > 0 {
			jr.Explain = &jsonExplain{
				MedianNs: ex.MedianNs, TailNs: ex.TailNs,
				Dominant: ex.Dominant, DominantDeltaNs: ex.DominantDeltaNs,
				DominantShare: ex.DominantShare, TailReqIDs: ex.TailReqIDs,
			}
		}
		doc = append(doc, jr)
	}
	enc, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}
