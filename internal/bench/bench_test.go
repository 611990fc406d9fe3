package bench

import (
	"strings"
	"testing"

	"nesc/internal/sim"
	"nesc/internal/workload"
)

// These tests assert the reproduction's headline shapes — who wins, by
// roughly what factor, where crossovers fall — against the claims in the
// paper's text (see EXPERIMENTS.md for the full mapping).

func TestFig9Shape(t *testing.T) {
	tables, err := Fig9(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	read, write := tables[0], tables[1]
	for _, tbl := range []struct {
		name string
		tab  interface {
			MustGet(x, c string) float64
		}
	}{{"read", read}, {"write", write}} {
		for _, bs := range []string{"512B", "1KB", "2KB"} {
			nesc := tbl.tab.MustGet(bs, BackendNeSC)
			host := tbl.tab.MustGet(bs, BackendHost)
			vio := tbl.tab.MustGet(bs, BackendVirt)
			emu := tbl.tab.MustGet(bs, BackendEmul)
			// "latency obtained by NeSC ... is similar to that obtained by
			// the host" — within 2x.
			if nesc > 2*host {
				t.Errorf("fig9 %s %s: NeSC %.1fus vs host %.1fus", tbl.name, bs, nesc, host)
			}
			// "over 6x faster than virtio ... for accesses smaller than 4KB"
			if vio/nesc < 5 {
				t.Errorf("fig9 %s %s: virtio/NeSC = %.1f, want >5", tbl.name, bs, vio/nesc)
			}
			// "over 20x faster than device emulation"
			if emu/nesc < 15 {
				t.Errorf("fig9 %s %s: emulation/NeSC = %.1f, want >15", tbl.name, bs, emu/nesc)
			}
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tables, err := Fig10(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	read, write, conv := tables[0], tables[1], tables[2]
	// Peaks: ~800 MB/s read, ~1 GB/s write (the prototype's numbers).
	nescRead := read.MustGet("32KB", BackendNeSC)
	nescWrite := write.MustGet("32KB", BackendNeSC)
	if nescRead < 600 || nescRead > 1000 {
		t.Errorf("NeSC peak read = %.0f MB/s, want ~800", nescRead)
	}
	if nescWrite < 800 || nescWrite > 1200 {
		t.Errorf("NeSC peak write = %.0f MB/s, want ~1000", nescWrite)
	}
	// "2.5x and 3x better read and write bandwidth ... than virtio".
	if r := nescRead / read.MustGet("32KB", BackendVirt); r < 2 {
		t.Errorf("read NeSC/virtio at 32KB = %.2f, want >= 2", r)
	}
	if r := nescWrite / write.MustGet("32KB", BackendVirt); r < 2.4 {
		t.Errorf("write NeSC/virtio at 32KB = %.2f, want >= 2.4", r)
	}
	// Emulation is far below everything.
	if read.MustGet("32KB", BackendEmul) > read.MustGet("32KB", BackendVirt) {
		t.Error("emulation outperformed virtio")
	}
	// "for very large block sizes (over 2MB), the bandwidths delivered by
	// NeSC and virtio converge".
	ratio := conv.MustGet("2MB", BackendNeSC) / conv.MustGet("2MB", BackendVirt)
	if ratio > 1.15 {
		t.Errorf("virtio has not converged at 2MB: NeSC/virtio = %.2f", ratio)
	}
	// And monotone bandwidth growth with block size for NeSC.
	prev := 0.0
	for _, bs := range []string{"512B", "1KB", "2KB", "4KB", "8KB", "16KB", "32KB"} {
		v := read.MustGet(bs, BackendNeSC)
		if v < prev {
			t.Errorf("NeSC read bandwidth not monotone at %s: %.0f < %.0f", bs, v, prev)
		}
		prev = v
	}
}

func TestFig11Shape(t *testing.T) {
	tables, err := Fig11(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	for _, bs := range []string{"512B", "1KB", "4KB"} {
		nescFS := tbl.MustGet(bs, "NeSC - FS")
		nescRaw := tbl.MustGet(bs, "NeSC - raw")
		vioFS := tbl.MustGet(bs, "virtio - FS")
		vioRaw := tbl.MustGet(bs, "virtio - raw")
		// FS adds a modest, roughly constant cost on NeSC (~40us in the
		// paper; 15..60us here).
		d := nescFS - nescRaw
		if d < 10 || d > 70 {
			t.Errorf("fig11 %s: NeSC FS overhead %.1fus, want 10..70", bs, d)
		}
		// FS costs several times more on virtio (~170us in the paper).
		dv := vioFS - vioRaw
		if dv < 100 || dv > 250 {
			t.Errorf("fig11 %s: virtio FS overhead %.1fus, want 100..250", bs, dv)
		}
		// "over 4x slower than NeSC with a filesystem for writes smaller
		// than 8KB".
		if vioFS/nescFS < 4 {
			t.Errorf("fig11 %s: virtio-FS/NeSC-FS = %.2f, want > 4", bs, vioFS/nescFS)
		}
	}
}

func TestFig2PointShape(t *testing.T) {
	// The first and last points the figure prints.
	speedup := func(deviceBandwidth float64) float64 {
		direct, vio, err := Fig2Point(DefaultConfig(), deviceBandwidth)
		if err != nil {
			t.Fatal(err)
		}
		return direct / vio
	}
	slow, fast := speedup(100e6), speedup(3600e6)
	// "direct device assignment roughly doubles the storage bandwidth ...
	// for modern, multi GB/s storage devices", while slow devices see none.
	if slow > 1.2 {
		t.Errorf("speedup at 100MB/s = %.2f, want ~1", slow)
	}
	if fast < 1.6 || fast > 2.6 {
		t.Errorf("speedup at 3.6GB/s = %.2f, want ~2", fast)
	}
	if fast <= slow {
		t.Error("speedup does not grow with device bandwidth")
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("application sweep in -short mode")
	}
	tables, err := Fig12(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := tables[0], tables[1]
	for _, app := range Fig12Apps {
		overEmu := a.MustGet(app, "Speedup")
		overVio := b.MustGet(app, "Speedup")
		if overEmu <= 1 || overVio <= 1 {
			t.Errorf("%s: NeSC not fastest (emu %.2f, virtio %.2f)", app, overEmu, overVio)
		}
		// Emulation is always the slowest backend.
		if overEmu < overVio {
			t.Errorf("%s: emulation (%.2f) beat virtio (%.2f)", app, overEmu, overVio)
		}
		// Application speedups stay below the raw-device latency gaps.
		if overVio > 7 || overEmu > 25 {
			t.Errorf("%s: implausible app speedup (emu %.1f, virtio %.1f)", app, overEmu, overVio)
		}
	}
}

func TestTables(t *testing.T) {
	t1, err := Table1(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t1[0].String(), "BTLB 8 entries") {
		t.Error("table1 missing BTLB configuration")
	}
	t2, err := Table2(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"dd", "SysBench", "Postmark", "OLTP"} {
		if !strings.Contains(t2[0].String(), w) {
			t.Errorf("table2 missing %s", w)
		}
	}
}

func TestAblationBTLBShape(t *testing.T) {
	tables, err := AblationBTLB(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// Hit rate grows with BTLB size and saturates near the paper's 8-entry
	// design point; walk traffic shrinks accordingly.
	hr0 := tbl.MustGet("0", "hit rate")
	hr1 := tbl.MustGet("1", "hit rate")
	hr8 := tbl.MustGet("8", "hit rate")
	hr64 := tbl.MustGet("64", "hit rate")
	if hr0 != 0 {
		t.Errorf("BTLB=0 hit rate %.2f", hr0)
	}
	if hr8 < 0.5 {
		t.Errorf("BTLB=8 hit rate %.2f, want high under 8 streaming VFs", hr8)
	}
	if hr8 <= hr1 {
		t.Errorf("hit rate did not grow with size: 1 entry %.2f, 8 entries %.2f", hr1, hr8)
	}
	if hr64 < hr8 {
		t.Errorf("hit rate regressed past the design point: %.2f -> %.2f", hr8, hr64)
	}
	w0 := tbl.MustGet("0", "walk node reads/op")
	w8 := tbl.MustGet("8", "walk node reads/op")
	if w8 >= w0 {
		t.Errorf("walk traffic did not shrink: 8 entries %.2f vs 0 entries %.2f", w8, w0)
	}
}

func TestAblationTrampolineShape(t *testing.T) {
	tables, err := AblationTrampoline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// IOMMU mode avoids the copies, so it is at least as fast everywhere.
	if tbl.MustGet("iommu", "read MB/s") < tbl.MustGet("trampoline", "read MB/s") {
		t.Error("IOMMU mode slower than trampolines on reads")
	}
	if tbl.MustGet("iommu", "512B write us") > tbl.MustGet("trampoline", "512B write us") {
		t.Error("IOMMU mode slower than trampolines on small writes")
	}
}

func TestAblationLazyAllocShape(t *testing.T) {
	tables, err := AblationLazyAlloc(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if tbl.MustGet("sparse (lazy)", "miss interrupts") == 0 {
		t.Error("sparse image produced no miss interrupts")
	}
	if tbl.MustGet("preallocated", "miss interrupts") != 0 {
		t.Error("preallocated image produced miss interrupts")
	}
	if tbl.MustGet("sparse (lazy)", "p99 latency us") <= tbl.MustGet("preallocated", "p99 latency us") {
		t.Error("lazy allocation did not show in tail latency")
	}
}

func TestAblationQoSShape(t *testing.T) {
	tables, err := AblationQoS(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// Equal weights: equal service.
	if r := tbl.MustGet("1:1", "achieved ratio"); r < 0.9 || r > 1.1 {
		t.Errorf("1:1 ratio = %.2f", r)
	}
	// Higher weight strictly increases the favored VF's share.
	v1 := tbl.MustGet("1:1", "vm0 MB/s")
	v4 := tbl.MustGet("4:1", "vm0 MB/s")
	v8 := tbl.MustGet("8:1", "vm0 MB/s")
	if !(v4 > v1*1.2 && v8 >= v4) {
		t.Errorf("weights ineffective: vm0 = %.0f / %.0f / %.0f at 1:1 / 4:1 / 8:1", v1, v4, v8)
	}
	// Work conservation: the loser still gets the slack.
	if tbl.MustGet("8:1", "vm1 MB/s") < 100 {
		t.Error("low-weight VF starved (scheduler must be work-conserving)")
	}
}

func TestAblationOOBShape(t *testing.T) {
	tables, err := AblationOOB(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	idle := tbl.MustGet("idle", "PF latency us")
	sat := tbl.MustGet("saturated", "PF latency us")
	// The OOB channel keeps PF latency bounded: well under a full queue's
	// worth of delay even when the VFs saturate the device.
	if sat > 20*idle {
		t.Errorf("PF latency exploded under VF load: %.1fus vs %.1fus idle", sat, idle)
	}
}

func TestExperimentRegistryRunsEverything(t *testing.T) {
	if n := len(Registry()); n < 13 {
		t.Fatalf("registry has %d experiments", n)
	}
	// One slice: the golden set is the registry minus its extras, and an
	// extra is still reachable by name.
	if all, reg := All(), Registry(); len(all) != len(reg)-1 || !reg[len(reg)-1].Extra {
		t.Fatalf("All() has %d of the registry's %d experiments; want all but the one extra, listed last", len(all), len(reg))
	}
	if e, err := ByName("dedup"); err != nil || !e.Extra {
		t.Fatalf("ByName(dedup) = extra %v, err %v", e.Extra, err)
	}
	if _, err := ByName("fig9"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestQDepthShape(t *testing.T) {
	tables, err := QDepth(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// NeSC scales with queue depth; virtio saturates early.
	n1 := tbl.MustGet("1", BackendNeSC)
	n16 := tbl.MustGet("16", BackendNeSC)
	if n16 < 3*n1 {
		t.Errorf("NeSC QD scaling: %.0f -> %.0f MB/s", n1, n16)
	}
	v4 := tbl.MustGet("4", BackendVirt)
	v16 := tbl.MustGet("16", BackendVirt)
	if v16 > v4*1.3 {
		t.Errorf("virtio kept scaling past its software bottleneck: %.0f -> %.0f", v4, v16)
	}
	if n16 < 5*v16 {
		t.Errorf("NeSC/virtio at QD16 = %.1f, want large", n16/v16)
	}
}

func TestBreakdownShape(t *testing.T) {
	tables, err := Breakdown(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// At QD 1 the dominant component is the transfer itself; queueing is
	// negligible. At QD 16 the pLBA queue dominates.
	if tbl.MustGet("DMA transfer (medium+PCIe)", "QD 1") < 10*tbl.MustGet("pLBA queue wait", "QD 1") {
		t.Error("QD1: queueing should be negligible next to transfer")
	}
	if tbl.MustGet("pLBA queue wait", "QD 16") < tbl.MustGet("DMA transfer (medium+PCIe)", "QD 16") {
		t.Error("QD16: saturation queueing should dominate")
	}
	// Translation stays sub-microsecond (BTLB hits on sequential streams).
	if tr := tbl.MustGet("translation (BTLB/walk)", "QD 1"); tr > 1 {
		t.Errorf("translation = %.2fus, want sub-microsecond on hits", tr)
	}
}

func TestPlatformDeterminism(t *testing.T) {
	runOnce := func() sim.Time {
		pl := NewPlatform(DefaultConfig())
		var elapsed sim.Time
		err := pl.Run(func(p *sim.Proc) error {
			tgt, err := pl.RawTarget(p, BackendNeSC, 16*1024)
			if err != nil {
				return err
			}
			res, err := (workload.DD{BlockBytes: 4096, TotalBytes: 1 << 20, Write: true}).Run(p, tgt)
			if err != nil {
				return err
			}
			elapsed = res.Elapsed
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("identical runs diverged: %v vs %v", a, b)
	}
}
