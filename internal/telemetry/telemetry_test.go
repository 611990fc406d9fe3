package telemetry

import (
	"strings"
	"testing"

	"nesc/internal/core"
	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/trace"
)

// A reset is one Event, and the observer shows it in the order the sinks'
// cross-links rely on: the ring event first, so the flight record's tail ends
// with it, then the capture, then the scoreboard's FLR.
func TestResetReachesRingFlightAndBoardInOrder(t *testing.T) {
	s := Sinks{Events: trace.NewRing(8), Board: slo.NewScoreboard(8)}
	p := core.DefaultParams()
	p.DeviceID = 2
	o := s.Observer(p)
	o.Event(core.Event{Kind: core.EvMiss, At: 4, Fn: 3, LBA: 9, Arg: 1})
	o.Event(core.Event{Kind: core.EvReset, At: 5, Fn: 3, Arg: 7})

	evs := s.Events.Events()
	if len(evs) != 2 || evs[0].Kind != trace.KindMiss || evs[1].Kind != trace.KindReset {
		t.Fatalf("ring holds %v, want a miss then a reset", evs)
	}
	if e := evs[1]; e.At != 5 || e.Dev != 2 || e.Fn != 3 || e.Arg != 7 {
		t.Errorf("reset event %+v", e)
	}
	recs := o.Flight.Records()
	if len(recs) != 1 || recs[0].Reason != "reset" || recs[0].Fn != 3 || recs[0].Dev != 2 || recs[0].At != 5 {
		t.Fatalf("flight records %+v, want one reset capture", recs)
	}
	if tail := recs[0].Events; len(tail) != 2 || tail[1].Kind != trace.KindReset {
		t.Errorf("the capture's tail %v does not end with the reset", tail)
	}
	board := s.Board.Events()
	if len(board) != 1 || board[0].Kind != slo.EventFLR || board[0].VF != 3 || board[0].Dev != 2 {
		t.Errorf("scoreboard holds %+v, want one FLR", board)
	}
}

// With no sink armed the flight recorder is still there, and an event that
// only a sink would show costs nothing.
func TestEmptyBundleStillRecordsFlight(t *testing.T) {
	o := Sinks{}.Observer(core.DefaultParams())
	o.Event(core.Event{Kind: core.EvCowBreak, At: 1, Fn: 1, Arg: 100})
	o.Event(core.Event{Kind: core.EvReset, At: 2, Fn: 1})
	if o.Flight.Total != 1 {
		t.Fatalf("flight recorder holds %d captures, want 1", o.Flight.Total)
	}
}

// Every report that reaches a sink other than its own is joined in this
// package: a completion's SLO verdict becomes scoreboard events, a mirror
// read and a CAS chunk become attribution rows, a leg's quarantine and rejoin
// become scoreboard events, and each row, tenant and board is published in
// the registry as it opens. The scoreboard dump and the Prometheus text are
// pinned byte for byte.
func TestJoinsReachEverySink(t *testing.T) {
	s := Sinks{Metrics: metrics.New(), Attrib: slo.NewAttributor(16), Board: slo.NewScoreboard(8),
		SLO: slo.NewEngine(slo.Objective{Latency: 100, Goal: 0.9, ShortWindow: 800, LongWindow: 1600, BurnThreshold: 2, MinSamples: 1})}
	s.Observer(core.DefaultParams())
	s.observe(3, 1000, 500, false, 7) // one bad completion: alert and exhaustion
	s.FabricRead(3, 900, 600, true)
	s.Quarantined(2000, 1, 3, 4.5, 2*sim.Millisecond)
	s.Rejoined(5000, 1, 3)
	s.ChunkFetched(4, "read", 300)
	s.ChunkWritten(4, "read", 200)

	var board, prom strings.Builder
	if err := s.Board.Dump(&board); err != nil {
		t.Fatal(err)
	}
	if err := s.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if got := board.String(); got != wantBoard {
		t.Errorf("scoreboard dump:\n%s\nwant:\n%s", got, wantBoard)
	}
	if got := prom.String(); got != wantProm {
		t.Errorf("Prometheus text:\n%s\nwant:\n%s", got, wantProm)
	}
}

const wantBoard = `#1             1us  slo-burn         vf=3 req=7 value=10
#2             1us  budget-exhausted vf=3 req=7 value=1
#3             2us  detector-trip    dev=1 vf=3 fail-slow p99 value=4.5
#4             2us  quarantine       dev=1 vf=3 value=2e+06
#5             5us  rejoin           dev=1 vf=3
`

const wantProm = `# HELP nesc_attrib_admission_ns_total summed admission time attributed to this row
# TYPE nesc_attrib_admission_ns_total gauge
nesc_attrib_admission_ns_total{vf="3",op="fabric-read"} 0
nesc_attrib_admission_ns_total{vf="4",op="read"} 0
# HELP nesc_attrib_dtu_wait_ns_total summed dtu_wait time attributed to this row
# TYPE nesc_attrib_dtu_wait_ns_total gauge
nesc_attrib_dtu_wait_ns_total{vf="3",op="fabric-read"} 0
nesc_attrib_dtu_wait_ns_total{vf="4",op="read"} 0
# HELP nesc_attrib_errors_total non-OK requests in the attribution row
# TYPE nesc_attrib_errors_total gauge
nesc_attrib_errors_total{vf="3",op="fabric-read"} 0
nesc_attrib_errors_total{vf="4",op="read"} 0
# HELP nesc_attrib_fabric_wait_ns_total summed fabric_wait time attributed to this row
# TYPE nesc_attrib_fabric_wait_ns_total gauge
nesc_attrib_fabric_wait_ns_total{vf="3",op="fabric-read"} 300
nesc_attrib_fabric_wait_ns_total{vf="4",op="read"} 300
# HELP nesc_attrib_fetch_ns_total summed fetch time attributed to this row
# TYPE nesc_attrib_fetch_ns_total gauge
nesc_attrib_fetch_ns_total{vf="3",op="fabric-read"} 0
nesc_attrib_fetch_ns_total{vf="4",op="read"} 0
# HELP nesc_attrib_medium_ns_total summed medium time attributed to this row
# TYPE nesc_attrib_medium_ns_total gauge
nesc_attrib_medium_ns_total{vf="3",op="fabric-read"} 600
nesc_attrib_medium_ns_total{vf="4",op="read"} 200
# HELP nesc_attrib_other_ns_total summed other time attributed to this row
# TYPE nesc_attrib_other_ns_total gauge
nesc_attrib_other_ns_total{vf="3",op="fabric-read"} 0
nesc_attrib_other_ns_total{vf="4",op="read"} 0
# HELP nesc_attrib_queue_wait_ns_total summed queue_wait time attributed to this row
# TYPE nesc_attrib_queue_wait_ns_total gauge
nesc_attrib_queue_wait_ns_total{vf="3",op="fabric-read"} 0
nesc_attrib_queue_wait_ns_total{vf="4",op="read"} 0
# HELP nesc_attrib_requests_total requests folded into the attribution row
# TYPE nesc_attrib_requests_total gauge
nesc_attrib_requests_total{vf="3",op="fabric-read"} 1
nesc_attrib_requests_total{vf="4",op="read"} 0
# HELP nesc_attrib_retry_ns_total summed retry time attributed to this row
# TYPE nesc_attrib_retry_ns_total gauge
nesc_attrib_retry_ns_total{vf="3",op="fabric-read"} 0
nesc_attrib_retry_ns_total{vf="4",op="read"} 0
# HELP nesc_attrib_translate_ns_total summed translate time attributed to this row
# TYPE nesc_attrib_translate_ns_total gauge
nesc_attrib_translate_ns_total{vf="3",op="fabric-read"} 0
nesc_attrib_translate_ns_total{vf="4",op="read"} 0
# HELP nesc_hyp_cow_break_ns CoW break service latency (fault read to BTLB invalidated)
# TYPE nesc_hyp_cow_break_ns histogram
nesc_hyp_cow_break_ns_bucket{le="1"} 0
nesc_hyp_cow_break_ns_bucket{le="549755813888"} 0
nesc_hyp_cow_break_ns_bucket{le="+Inf"} 0
nesc_hyp_cow_break_ns_sum 0
nesc_hyp_cow_break_ns_count 0
# HELP nesc_scoreboard_events_total structured anomaly events emitted, by kind
# TYPE nesc_scoreboard_events_total gauge
nesc_scoreboard_events_total{op="admit-reject"} 0
nesc_scoreboard_events_total{op="budget-exhausted"} 1
nesc_scoreboard_events_total{op="deadline"} 0
nesc_scoreboard_events_total{op="detector-trip"} 1
nesc_scoreboard_events_total{op="flr"} 0
nesc_scoreboard_events_total{op="quarantine"} 1
nesc_scoreboard_events_total{op="rejoin"} 1
nesc_scoreboard_events_total{op="request-error"} 0
nesc_scoreboard_events_total{op="slo-burn"} 1
# HELP nesc_slo_alerts_total burn-rate alerts fired for this tenant
# TYPE nesc_slo_alerts_total gauge
nesc_slo_alerts_total{vf="3"} 1
# HELP nesc_slo_budget_consumed cumulative error-budget fraction spent
# TYPE nesc_slo_budget_consumed gauge
nesc_slo_budget_consumed{vf="3"} 10.000000000000002
# HELP nesc_slo_burn_rate_long long-window error-budget burn rate
# TYPE nesc_slo_burn_rate_long gauge
nesc_slo_burn_rate_long{vf="3"} 10.000000000000002
# HELP nesc_slo_burn_rate_short short-window error-budget burn rate
# TYPE nesc_slo_burn_rate_short gauge
nesc_slo_burn_rate_short{vf="3"} 10.000000000000002
# HELP nesc_metrics_series_dropped_total label sets aggregated into overflow series by the cardinality cap
# TYPE nesc_metrics_series_dropped_total counter
nesc_metrics_series_dropped_total 0
`
