package nesc

// The counter catalogue (internal/bench/catalogue.go) declares every platform
// counter once and produces both telemetry surfaces from the declaration:
// Stats fields and registry gauge families. This test walks it after a
// workload that moves most counters and holds the two surfaces to each
// other row by row — values, not names, so a row whose getter reads a
// different counter than its family's name promises cannot hide.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// catalogueWorkload exercises the device pipeline, the hypervisor miss path,
// the content-addressed tier and — through rejected descriptor-fetch and
// completion DMAs — the wire-level fault counters.
func catalogueWorkload(ctx *Ctx) error {
	if err := ctx.CreateImage("/drift.img", 11, 1<<20, false); err != nil {
		return err
	}
	vm, err := ctx.StartVM("drift", BackendNeSC, "/drift.img", 11)
	if err != nil {
		return err
	}
	buf := bytes.Repeat([]byte{0xD7}, 8192)
	for i := 0; i < 32; i++ {
		// A rejected payload DMA surfaces as an honest error on the caller;
		// only the counters matter here.
		_ = vm.WriteAt(ctx, buf, int64(i)*8192)
		_ = vm.ReadAt(ctx, buf, int64(i)*8192)
	}
	// Content-addressed tier: seal, fork, and touch the fork so the cas
	// store, cache, and materialization counters all move.
	if _, err := ctx.SealImage("/drift.img", "drift-golden", 11); err != nil {
		return err
	}
	if err := ctx.ForkImage("drift-golden", "/drift-fork.img", 11); err != nil {
		return err
	}
	fvm, err := ctx.StartVM("drift-fork", BackendNeSC, "/drift-fork.img", 11)
	if err != nil {
		return err
	}
	_ = fvm.ReadAt(ctx, buf, 0)
	ctx.Sleep(100 * time.Microsecond)
	fvm.Stop(ctx)
	vm.Stop(ctx)
	return nil
}

func TestStatsFieldsMapToMetricFamilies(t *testing.T) {
	plan := &FaultPlan{Seed: 3}
	plan.Sites[FaultDMARead] = FaultSiteParams{Prob: 0.001}
	plan.Sites[FaultDMAWrite] = FaultSiteParams{Prob: 0.001}
	sim := New(Config{
		Metrics:          true,
		Attribution:      true,
		ScoreboardEvents: 32,
		SLO:              &SLOObjective{},
		CAS:              true,
		Fault:            plan,
		DriverTimeout:    time.Millisecond,
		DriverRetryMax:   4,
	})
	if err := sim.Run(catalogueWorkload); err != nil {
		t.Fatalf("workload failed: %v", err)
	}

	// Structure: every Stats field is filled by exactly one row, every row
	// names a real field, no family is declared twice, and a row that keeps a
	// field out of the registry says why.
	st := sim.Stats()
	sv := reflect.ValueOf(st)
	rowsByField := make(map[string]int)
	families := make(map[string]bool)
	for _, c := range sim.pl.Counters() {
		if c.Field != "" {
			rowsByField[c.Field]++
			if !sv.FieldByName(c.Field).IsValid() {
				t.Errorf("catalogue row names Stats.%s, which does not exist", c.Field)
			}
		}
		if c.Family == "" && (c.Field == "" || c.Help == "") {
			t.Errorf("catalogue row {%q, %q} has no family and no recorded reason", c.Field, c.Family)
		}
		if c.Family != "" && families[c.Family] {
			t.Errorf("family %s is declared twice", c.Family)
		}
		families[c.Family] = true
	}
	for i := 0; i < sv.NumField(); i++ {
		if name := sv.Type().Field(i).Name; rowsByField[name] != 1 {
			t.Errorf("Stats.%s is filled by %d catalogue rows, want exactly 1", name, rowsByField[name])
		}
	}

	// Values: the exported unlabelled series of each row's family equals the
	// Stats field the same row fills.
	var out bytes.Buffer
	if err := sim.WriteMetricsJSON(&out); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	var doc []struct {
		Name   string
		Series []struct {
			VF, Q *int
			Op    string
			Value *float64
		}
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("metrics export is not valid JSON: %v", err)
	}
	exported := make(map[string]float64)
	var anomalies float64
	for _, fam := range doc {
		for _, s := range fam.Series {
			if s.Value == nil {
				continue
			}
			if s.VF == nil && s.Q == nil && s.Op == "" {
				exported[fam.Name] = *s.Value
			}
			if fam.Name == "nesc_scoreboard_events_total" {
				anomalies += *s.Value
			}
		}
	}
	for _, c := range sim.pl.Counters() {
		if c.Field == "" || c.Family == "" {
			continue
		}
		got, ok := exported[c.Family]
		if !ok {
			t.Errorf("Stats.%s: family %s was never exported", c.Field, c.Family)
			continue
		}
		want := sv.FieldByName(c.Field)
		if f := want.Kind() == reflect.Float64; (f && got != want.Float()) || (!f && got != float64(want.Int())) {
			t.Errorf("Stats.%s = %v but %s exports %v", c.Field, want, c.Family, got)
		}
	}
	if anomalies != float64(st.AnomalyEvents) {
		t.Errorf("Stats.AnomalyEvents = %d but the nesc_scoreboard_events_total series sum to %v", st.AnomalyEvents, anomalies)
	}

	// The workload must have teeth where a name-lint is blind: a rejected
	// completion-write DMA counts on the wire (Stats.DMAFaultsInjected, its
	// own family) but fails no chunk (nesc_device_dma_faults_total).
	if st.CplDrops+st.FetchDrops == 0 || st.MissInterrupts == 0 || st.CASFetchMisses == 0 {
		t.Errorf("workload left counters idle: drops=%d MissInterrupts=%d CASFetchMisses=%d",
			st.CplDrops+st.FetchDrops, st.MissInterrupts, st.CASFetchMisses)
	}
	if dev := exported["nesc_device_dma_faults_total"]; dev == float64(st.DMAFaultsInjected) {
		t.Errorf("device and wire DMA-fault counters agree at %v: the workload no longer separates them", dev)
	}
}
