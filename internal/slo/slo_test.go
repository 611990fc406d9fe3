package slo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nesc/internal/sim"
)

// --- Scoreboard -----------------------------------------------------------

func TestScoreboardRingWrapAndCounts(t *testing.T) {
	b := NewScoreboard(4)
	for i := 0; i < 10; i++ {
		kind := EventDeadline
		if i%2 == 0 {
			kind = EventAdmitReject
		}
		b.Emit(Event{At: sim.Time(i * 100), Kind: kind, Dev: -1, VF: i})
	}
	if got := b.Total(); got != 10 {
		t.Fatalf("Total() = %d, want 10 (overwritten events still count)", got)
	}
	if got := b.Count(EventAdmitReject); got != 5 {
		t.Fatalf("Count(admit-reject) = %d, want 5", got)
	}
	if got := b.Count(EventDeadline); got != 5 {
		t.Fatalf("Count(deadline) = %d, want 5", got)
	}
	if got := b.Count(EventFLR); got != 0 {
		t.Fatalf("Count(flr) = %d, want 0", got)
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events()) = %d, want ring capacity 4", len(evs))
	}
	for i, ev := range evs {
		want := int64(7 + i) // oldest-first: sequence numbers 7..10 survive
		if ev.Seq != want {
			t.Fatalf("Events()[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestScoreboardCapacityClampsToOne(t *testing.T) {
	b := NewScoreboard(0)
	b.Emit(Event{Kind: EventFLR, VF: 1})
	b.Emit(Event{Kind: EventFLR, VF: 2})
	evs := b.Events()
	if len(evs) != 1 || evs[0].VF != 2 || evs[0].Seq != 2 {
		t.Fatalf("Events() = %+v, want just the newest event (seq 2, vf 2)", evs)
	}
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EventSLOBurn:         "slo-burn",
		EventBudgetExhausted: "budget-exhausted",
		EventDetectorTrip:    "detector-trip",
		EventQuarantine:      "quarantine",
		EventRejoin:          "rejoin",
		EventDeadline:        "deadline",
		EventAdmitReject:     "admit-reject",
		EventFLR:             "flr",
		EventRequestError:    "request-error",
	}
	if len(want) != int(NumEventKinds) {
		t.Fatalf("test covers %d kinds, package defines %d", len(want), NumEventKinds)
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Fatalf("EventKind(%d).String() = %q, want %q", k, got, name)
		}
	}
	if got := EventKind(99).String(); got != "EventKind(99)" {
		t.Fatalf("unknown kind String() = %q, want EventKind(99)", got)
	}
	// Counting an unknown kind must not panic or corrupt the table.
	b := NewScoreboard(2)
	b.Emit(Event{Kind: EventKind(200)})
	if b.Total() != 1 || b.Count(EventKind(200)) != 0 {
		t.Fatalf("unknown-kind emission: Total=%d Count=%d, want 1 and 0", b.Total(), b.Count(EventKind(200)))
	}
}

func TestScoreboardDump(t *testing.T) {
	b := NewScoreboard(8)
	var empty bytes.Buffer
	if err := b.Dump(&empty); err != nil {
		t.Fatalf("Dump(empty) error: %v", err)
	}
	if !strings.Contains(empty.String(), "no events") {
		t.Fatalf("empty dump = %q, want a 'no events' marker", empty.String())
	}
	b.Emit(Event{At: 1500 * sim.Microsecond, Kind: EventQuarantine, Dev: 0, VF: 3, ReqID: 42, Value: 2.5, Note: "legB"})
	var buf bytes.Buffer
	if err := b.Dump(&buf); err != nil {
		t.Fatalf("Dump error: %v", err)
	}
	out := buf.String()
	for _, frag := range []string{"quarantine", "dev=0", "vf=3", "req=42", "legB", "value=2.5", "1500us"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("dump %q missing %q", out, frag)
		}
	}
}

func TestScoreboardNilSafe(t *testing.T) {
	var b *Scoreboard
	b.Emit(Event{Kind: EventFLR})
	if b.Total() != 0 || b.Count(EventFLR) != 0 || b.Events() != nil {
		t.Fatal("nil scoreboard must report zero state")
	}
}

// --- Engine ---------------------------------------------------------------

// testObjective is small enough to reason about by hand: 90% of requests
// under 100ns, windows 800ns/1600ns, alert at 2x burn with 4 samples.
func testObjective() Objective {
	return Objective{
		Latency:       100,
		Goal:          0.9,
		ShortWindow:   800,
		LongWindow:    1600,
		BurnThreshold: 2,
		MinSamples:    4,
	}
}

func TestEngineAlertFiresAndLatchesOnce(t *testing.T) {
	e := NewEngine(testObjective())
	at := sim.Time(0)
	var fired, opened int
	step := func(n int, lat sim.Time) {
		for i := 0; i < n; i++ {
			at += 100
			v := e.Observe(1, at, lat, true)
			if v.Fired {
				fired++
				if v.Burn < testObjective().BurnThreshold {
					t.Errorf("alert fired at burn %v, under the threshold", v.Burn)
				}
			}
			if v.Opened {
				opened++
			}
		}
	}
	step(8, 50) // healthy warm-up fills MinSamples with goods
	if e.TotalAlerts() != 0 {
		t.Fatalf("alerts after healthy traffic = %d, want 0", e.TotalAlerts())
	}
	step(12, 500) // sustained over-latency burn
	if e.TotalAlerts() != 1 {
		t.Fatalf("alerts after one sustained burn = %d, want exactly 1 (hysteresis)", e.TotalAlerts())
	}
	st := e.Status()
	if len(st) != 1 || st[0].VF != 1 {
		t.Fatalf("Status() = %+v, want one tracker for vf 1", st)
	}
	if !st[0].Alerting || st[0].FirstAlertAt == 0 || st[0].Alerts != 1 {
		t.Fatalf("Status = %+v, want alerting with FirstAlertAt set", st[0])
	}
	if fired != 1 || opened != 1 {
		t.Fatalf("Observe reported %d alerts fired and %d trackers opened, want 1 and 1", fired, opened)
	}

	first := st[0].FirstAlertAt
	step(40, 50) // cool: the short window drains below threshold/2
	step(12, 500)
	if e.TotalAlerts() != 2 {
		t.Fatalf("alerts after cool-down and second burn = %d, want 2", e.TotalAlerts())
	}
	if st = e.Status(); st[0].FirstAlertAt != first {
		t.Fatalf("FirstAlertAt moved from %d to %d on re-alert", first, st[0].FirstAlertAt)
	}
}

func TestEngineMinSamplesFloor(t *testing.T) {
	e := NewEngine(testObjective())
	// Three straight failures burn at 10x but sit under the 4-sample floor.
	for i := sim.Time(1); i <= 3; i++ {
		e.Observe(2, i*100, 500, false)
	}
	if e.TotalAlerts() != 0 {
		t.Fatalf("alerts below MinSamples = %d, want 0", e.TotalAlerts())
	}
	e.Observe(2, 400, 500, false)
	if e.TotalAlerts() != 1 {
		t.Fatalf("alerts at MinSamples = %d, want 1", e.TotalAlerts())
	}
}

func TestEngineBudgetExhaustionLatches(t *testing.T) {
	e := NewEngine(testObjective())
	if v := e.Observe(3, 100, 50, true); v != (Verdict{Opened: true}) {
		t.Fatalf("first completion reported %+v, want only the tracker opened", v)
	}
	// One bad of two total consumes 1/(0.1*2) = 5x the budget: exhausted.
	if v := e.Observe(3, 200, 50, false); !v.Exhausted || v.Opened {
		t.Fatalf("second completion reported %+v, want the budget exhausted", v)
	}
	st := e.Status()[0]
	if st.ExhaustedAt != 200 {
		t.Fatalf("ExhaustedAt = %d, want 200", st.ExhaustedAt)
	}
	if st.BudgetConsumed < 1 {
		t.Fatalf("BudgetConsumed = %v, want >= 1", st.BudgetConsumed)
	}
	if v := e.Observe(3, 300, 50, false); v.Exhausted {
		t.Fatal("a third completion reported the budget exhausted again, want it latched")
	}
	if got := e.Status()[0].ExhaustedAt; got != 200 {
		t.Fatalf("ExhaustedAt moved to %d after more failures, want latched 200", got)
	}
}

func TestEngineSetObjectiveOverride(t *testing.T) {
	e := NewEngine(testObjective())
	e.SetObjective(7, Objective{Latency: 1000, Goal: 0.5, ShortWindow: 800, LongWindow: 1600, BurnThreshold: 2, MinSamples: 4})
	e.Observe(7, 100, 500, true) // slow by the default, fine by the override
	e.Observe(1, 100, 500, true) // same latency is bad under the default
	st := e.Status()
	if len(st) != 2 {
		t.Fatalf("Status() tracks %d tenants, want 2", len(st))
	}
	if st[0].VF != 1 || st[1].VF != 7 {
		t.Fatalf("Status() order = [%d %d], want sorted [1 7]", st[0].VF, st[1].VF)
	}
	if st[0].Good != 0 || st[0].Bad != 1 {
		t.Fatalf("default tenant good/bad = %d/%d, want 0/1", st[0].Good, st[0].Bad)
	}
	if st[1].Good != 1 || st[1].Bad != 0 {
		t.Fatalf("override tenant good/bad = %d/%d, want 1/0", st[1].Good, st[1].Bad)
	}
	// A live tracker keeps its objective: late overrides are ignored.
	e.SetObjective(7, Objective{Latency: 1})
	if got := e.Status()[1].Objective.Latency; got != 1000 {
		t.Fatalf("live tracker Latency = %d after late override, want 1000", got)
	}
}

func TestObjectiveNormalize(t *testing.T) {
	e := NewEngine(Objective{}) // all-zero objective clamps to defaults
	e.Observe(0, 100, 50, true)
	got := e.Status()[0].Objective
	if got != DefaultObjective() {
		t.Fatalf("normalized objective = %+v, want defaults %+v", got, DefaultObjective())
	}
	// A long window shorter than the short window stretches to 5x short.
	n := Objective{Latency: 10, Goal: 0.9, ShortWindow: 1000, LongWindow: 100,
		BurnThreshold: 2, MinSamples: 1}.normalize()
	if n.LongWindow != 5000 {
		t.Fatalf("LongWindow = %d, want 5000", n.LongWindow)
	}
}

func TestEngineNilSafe(t *testing.T) {
	var e *Engine
	e.Observe(1, 100, 50, true)
	e.SetObjective(1, Objective{})
	if e.TotalAlerts() != 0 || e.Status() != nil {
		t.Fatal("nil engine must report zero state")
	}
}

// --- Attributor -----------------------------------------------------------

func TestAttributorRowsAndShares(t *testing.T) {
	a := NewAttributor(0) // clamps to the 16-profile minimum
	var segs Segments
	segs[SegMedium] = 300
	segs[SegQueue] = 100
	a.Record(2, "read", 1, 400, true, segs)
	a.Record(2, "read", 2, 400, false, segs)
	a.Record(1, "write", 3, 400, true, segs)
	a.Record(2, "flush", 4, 400, true, segs)
	rows := a.Rows()
	if len(rows) != 3 {
		t.Fatalf("Rows() = %d rows, want 3", len(rows))
	}
	wantOrder := []struct {
		vf int
		op string
	}{{1, "write"}, {2, "flush"}, {2, "read"}}
	for i, w := range wantOrder {
		if rows[i].VF != w.vf || rows[i].Op != w.op {
			t.Fatalf("Rows()[%d] = {%d %s}, want {%d %s}", i, rows[i].VF, rows[i].Op, w.vf, w.op)
		}
	}
	r := rows[2]
	if r.Requests != 2 || r.Errors != 1 || r.TotalNs != 800 {
		t.Fatalf("read row = %+v, want 2 requests, 1 error, 800ns", r)
	}
	if got := r.Share(SegMedium); got != 0.75 {
		t.Fatalf("Share(medium) = %v, want 0.75", got)
	}
	if got := r.Share(-1); got != 0 {
		t.Fatalf("Share(-1) = %v, want 0", got)
	}
}

func TestAttributorAddSegmentGuards(t *testing.T) {
	a := NewAttributor(16)
	a.AddSegment(1, "read", SegAdmission, 500)
	a.AddSegment(1, "read", SegAdmission, 0)  // no-op: non-positive duration
	a.AddSegment(1, "read", -1, 100)          // no-op: segment out of range
	a.AddSegment(1, "read", NumSegments, 100) // no-op: segment out of range
	rows := a.Rows()
	if len(rows) != 1 || rows[0].SegNs[SegAdmission] != 500 {
		t.Fatalf("rows after AddSegment = %+v, want one row with admission=500", rows)
	}
	if rows[0].Requests != 0 {
		t.Fatalf("AddSegment must not count a request, got %d", rows[0].Requests)
	}
}

func TestExplainerNamesTheDominantSegment(t *testing.T) {
	a := NewAttributor(256)
	// 90 healthy requests: all medium. 10 tail requests: the same medium
	// plus a large queue-wait — the explainer must blame queue_wait.
	for i := 0; i < 90; i++ {
		var segs Segments
		segs[SegMedium] = 100_000
		a.Record(5, "read", uint64(i+1), 100_000, true, segs)
	}
	for i := 0; i < 10; i++ {
		var segs Segments
		segs[SegMedium] = 100_000
		segs[SegQueue] = 400_000
		a.Record(5, "read", uint64(1000+i), 500_000, true, segs)
	}
	ex, ok := a.Explain(5, "read")
	if !ok {
		t.Fatal("Explain found no profiles")
	}
	if ex.Dominant != SegmentName(SegQueue) {
		t.Fatalf("Dominant = %q, want queue_wait", ex.Dominant)
	}
	if ex.DominantDeltaNs != 400_000 {
		t.Fatalf("DominantDeltaNs = %d, want 400000", ex.DominantDeltaNs)
	}
	if ex.TailNs != 500_000 || ex.MedianNs != 100_000 {
		t.Fatalf("tail/median = %d/%d, want 500000/100000", ex.TailNs, ex.MedianNs)
	}
	if ex.DominantShare != 0.8 {
		t.Fatalf("DominantShare = %v, want 0.8", ex.DominantShare)
	}
	if len(ex.TailReqIDs) != 3 {
		t.Fatalf("TailReqIDs = %v, want 3 cross-link ids (the whole tail band)", ex.TailReqIDs)
	}
	for _, id := range ex.TailReqIDs {
		if id < 1000 {
			t.Fatalf("TailReqIDs %v include a non-tail request", ex.TailReqIDs)
		}
	}
	if _, ok := a.Explain(5, "write"); ok {
		t.Fatal("Explain on a missing row must report !ok")
	}
}

func TestAttributorWriteReportIsValidJSON(t *testing.T) {
	a := NewAttributor(16)
	var segs Segments
	segs[SegTranslate] = 250
	a.Record(1, `na"me`+"\n", 7, 250, true, segs) // hostile op string must escape
	var buf bytes.Buffer
	if err := a.WriteReport(&buf); err != nil {
		t.Fatalf("WriteReport error: %v", err)
	}
	var doc []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc) != 1 || doc[0]["op"] != `na"me`+"\n" {
		t.Fatalf("report rows = %+v, want the hostile op round-tripped", doc)
	}
}

func TestAttributorNilSafe(t *testing.T) {
	var a *Attributor
	a.Record(1, "read", 0, 100, true, Segments{})
	a.AddSegment(1, "read", SegQueue, 100)
	if a.Rows() != nil || a.Explanations() != nil {
		t.Fatal("nil attributor must report empty state")
	}
	if _, ok := a.Explain(1, "read"); ok {
		t.Fatal("nil attributor Explain must report !ok")
	}
	var buf bytes.Buffer
	if err := a.WriteReport(&buf); err != nil {
		t.Fatalf("nil WriteReport error: %v", err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil report = %q, want []", buf.String())
	}
}

func TestSegmentNameRange(t *testing.T) {
	if SegmentName(SegFetch) != "fetch" || SegmentName(SegOther) != "other" {
		t.Fatal("SegmentName mismatch on the endpoints")
	}
	if SegmentName(-1) != "" || SegmentName(NumSegments) != "" {
		t.Fatal("out-of-range SegmentName must be empty")
	}
}

// --- hot-path allocation guards ------------------------------------------

func TestHotPathsDoNotAllocate(t *testing.T) {
	board := NewScoreboard(64)
	ev := Event{At: 100, Kind: EventDeadline, Dev: 0, VF: 1, ReqID: 9, Note: "mux"}
	if avg := testing.AllocsPerRun(1000, func() { board.Emit(ev) }); avg != 0 {
		t.Fatalf("Scoreboard.Emit allocates %v per call, want 0", avg)
	}

	e := NewEngine(testObjective())
	at := sim.Time(0)
	e.Observe(1, at, 50, true) // first call materializes the tracker
	if avg := testing.AllocsPerRun(1000, func() {
		at += 100
		e.Observe(1, at, 50, true)
	}); avg != 0 {
		t.Fatalf("Engine.Observe allocates %v per call, want 0", avg)
	}

	a := NewAttributor(64)
	var segs Segments
	segs[SegMedium] = 100
	a.Record(1, "read", 1, 100, true, segs) // first call materializes the row
	if avg := testing.AllocsPerRun(1000, func() {
		a.Record(1, "read", 2, 100, true, segs)
	}); avg != 0 {
		t.Fatalf("Attributor.Record allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		a.AddSegment(1, "read", SegQueue, 10)
	}); avg != 0 {
		t.Fatalf("Attributor.AddSegment allocates %v per call, want 0", avg)
	}
}

func BenchmarkScoreboardEmit(b *testing.B) {
	board := NewScoreboard(256)
	ev := Event{At: 100, Kind: EventDeadline, VF: 1, ReqID: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		board.Emit(ev)
	}
}

func BenchmarkEngineObserve(b *testing.B) {
	e := NewEngine(testObjective())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Observe(1, sim.Time(i*100), 50, true)
	}
}

func BenchmarkAttributorRecord(b *testing.B) {
	a := NewAttributor(256)
	var segs Segments
	segs[SegMedium] = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Record(1, "read", uint64(i), 100, true, segs)
	}
}
