package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"nesc/internal/stats"
)

// Experiment is one regenerable paper artifact (or ablation).
type Experiment struct {
	Name  string
	Title string
	Run   func(cfg Config) ([]*stats.Table, error)
	// Extra marks an experiment that deliberately stays out of the golden
	// 'all' run (results/all_experiments.txt freezes the rest): it is
	// reachable by name (nescbench -exp dedup) and ships its own checked-in
	// artifact, results/dedup.json.
	Extra bool
}

// Label is the experiment's title as listings print it: an extra says so.
func (e Experiment) Label() string {
	if e.Extra {
		return e.Title + " (extra: not part of 'all')"
	}
	return e.Title
}

var registry = []Experiment{
	{Name: "table1", Title: "Table I: experimental platform", Run: Table1},
	{Name: "table2", Title: "Table II: benchmarks", Run: Table2},
	{Name: "fig2", Title: "Figure 2: direct-assignment speedup over virtio vs device bandwidth", Run: Fig2},
	{Name: "fig9", Title: "Figure 9: raw access latency vs block size", Run: Fig9},
	{Name: "fig10", Title: "Figure 10: raw bandwidth vs block size (+ convergence)", Run: Fig10},
	{Name: "fig11", Title: "Figure 11: filesystem overheads on write latency", Run: Fig11},
	{Name: "fig12", Title: "Figure 12: application speedups (OLTP, Postmark, SysBench)", Run: Fig12},
	{Name: "btlb", Title: "Ablation: BTLB size", Run: AblationBTLB},
	{Name: "walkoverlap", Title: "Ablation: overlapped tree walks", Run: AblationWalkOverlap},
	{Name: "trampoline", Title: "Ablation: trampoline buffers vs IOMMU DMA", Run: AblationTrampoline},
	{Name: "prune", Title: "Ablation: extent-tree pruning and regeneration", Run: AblationPrune},
	{Name: "fairness", Title: "Ablation: round-robin fairness across VFs", Run: AblationFairness},
	{Name: "qos", Title: "Ablation: QoS weights across competing VFs", Run: AblationQoS},
	{Name: "oob", Title: "Ablation: PF out-of-band channel under VF load", Run: AblationOOB},
	{Name: "lazyalloc", Title: "Ablation: lazy allocation (write-miss) cost", Run: AblationLazyAlloc},
	{Name: "mq", Title: "Ablation: multi-queue scaling (queues per VF x queue depth)", Run: AblationMQ},
	{Name: "integrity", Title: "Ablation: guard tags x background scrubber vs raw throughput", Run: AblationIntegrity},
	{Name: "breakdown", Title: "Analysis: latency breakdown inside the NeSC pipeline", Run: Breakdown},
	{Name: "qdepth", Title: "Analysis: queue-depth scaling, NeSC vs virtio", Run: QDepth},
	{Name: "spans", Title: "Analysis: span-derived per-stage latency (BTLB hit vs walk vs miss)", Run: Spans},
	{Name: "snapshot", Title: "Analysis: CoW snapshot cost (first-write fault latency, clone-fanout space)", Run: Snapshot},
	{Name: "fabric", Title: "Robustness: multi-device mirroring, failover, resilver, and live VF migration", Run: Fabric},
	{Name: "scale", Title: "Scaling: massive tenancy via lazy VF core, queue-pair pool, and shadow doorbells", Run: Scale},
	{Name: "grayfail", Title: "Robustness: fail-slow injection, hedged reads, quarantine, deadline + admission control", Run: GrayFail},
	{Name: "slo", Title: "Observability: tail-latency attribution, per-tenant SLO burn alerts, anomaly scoreboard", Run: SLOExp},
	{Name: "dedup", Title: "Content-addressed tier: dedup ratio, first-touch latency, 8-host golden-image fork", Run: Dedup, Extra: true},
}

// Registry lists every experiment, extras included, in registry order.
func Registry() []Experiment { return slices.Clone(registry) }

// All lists the golden 'all' set: every experiment that is not an extra.
func All() []Experiment {
	return slices.DeleteFunc(Registry(), func(e Experiment) bool { return e.Extra })
}

// ByName finds an experiment, extras included.
func ByName(name string) (Experiment, error) {
	var known []string
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
		known = append(known, e.Name)
	}
	slices.Sort(known)
	return Experiment{}, fmt.Errorf("bench: no experiment %q (known: %v)", name, known)
}

// Render is the text form of an experiment's tables: what nescbench prints
// and results/all_experiments.txt holds.
func Render(tables []*stats.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON is the JSON form of an experiment's tables: what nescbench -json writes
// and results/<name>.json holds. A single table is one object, several an
// array.
func JSON(tables []*stats.Table) ([]byte, error) {
	raws := make([]json.RawMessage, len(tables))
	for i, t := range tables {
		var err error
		if raws[i], err = t.JSON(); err != nil {
			return nil, err
		}
	}
	if len(raws) == 1 {
		return raws[0], nil
	}
	b, err := json.MarshalIndent(raws, "", "  ")
	return append(b, '\n'), err
}
