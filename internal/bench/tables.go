package bench

import (
	"fmt"
	"strings"

	"nesc/internal/extent"
	"nesc/internal/stats"
)

// Table I and Table II of the paper are descriptive; here they document the
// simulated platform's configuration and the implemented benchmark suite so
// every run records exactly what produced its numbers.

// Table1 renders the experimental-platform table (paper Table I) for the
// given configuration.
func Table1(cfg Config) ([]*stats.Table, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== Table I: experimental platform (simulated) ==\n")
	fmt.Fprintf(&b, "Host machine (simulated equivalents of the paper's Supermicro X9DRG-QF)\n")
	fmt.Fprintf(&b, "  Host memory               %d MB\n", hostMemBytes>>20)
	fmt.Fprintf(&b, "  Host I/O                  PCIe, %.1f GB/s per direction, MMIO read %v, DMA request %v\n",
		cfg.PCIe.LinkBandwidth/1e9, cfg.PCIe.MMIOReadLatency, cfg.PCIe.DMARequestLatency)
	fmt.Fprintf(&b, "Virtualized system (QEMU/KVM-style cost model)\n")
	fmt.Fprintf(&b, "  vmexit/vmenter            %v / %v\n", cfg.Hyp.VMExitTime, cfg.Hyp.VMEnterTime)
	fmt.Fprintf(&b, "  interrupt injection       %v\n", cfg.Hyp.InjectTime)
	fmt.Fprintf(&b, "  virtio backend wake/proc  %v / %v\n", cfg.Hyp.BackendWakeTime, cfg.Hyp.BackendProcessTime)
	fmt.Fprintf(&b, "  emulation trap/command    %v / %v\n", cfg.Hyp.EmulTrapTime, cfg.Hyp.EmulCmdProcessTime)
	fmt.Fprintf(&b, "  host stack per request    %v (guest: %v)\n", cfg.Hyp.HostStackTime, cfg.Hyp.Guest.StackTime)
	fmt.Fprintf(&b, "  IOMMU                     %v (trampoline buffers when false, as the prototype)\n", cfg.Hyp.UseIOMMU)
	fmt.Fprintf(&b, "Prototyping platform (simulated equivalents of the VC707/Virtex-7 board)\n")
	fmt.Fprintf(&b, "  medium                    %d MB, read %.0f MB/s + %v, write %.0f MB/s + %v\n",
		cfg.MediumBlocks*int64(cfg.Core.BlockSize)>>20,
		cfg.Medium.ReadBandwidth/1e6, cfg.Medium.ReadLatency,
		cfg.Medium.WriteBandwidth/1e6, cfg.Medium.WriteLatency)
	fmt.Fprintf(&b, "  NeSC controller           %d VFs, %d B blocks, BTLB %d entries, %d overlapped walks, %d DMA channels\n",
		cfg.Core.NumVFs, cfg.Core.BlockSize, cfg.Core.BTLBEntries, cfg.Core.Walkers, cfg.Core.DTUChannels)
	fmt.Fprintf(&b, "  extent tree fanout        %d (node = %d bytes)\n", extent.DefaultFanout, extent.NodeBytes(extent.DefaultFanout))
	fmt.Fprintf(&b, "  host filesystem           extent-based, journal=%v\n", cfg.HostFS.Mode)

	t := stats.NewTable("Table I: experimental platform", "", "")
	t.Note("%s", b.String())
	return []*stats.Table{t}, nil
}

// Table2 renders the benchmark inventory (paper Table II).
func Table2(Config) ([]*stats.Table, error) {
	t := stats.NewTable("Table II: benchmarks", "benchmark", "", "kind")
	t.Note("dd        | microbenchmark  | read/write files using different operational parameters (Figs. 2, 9, 10, 11)")
	t.Note("SysBench  | macrobenchmark  | a sequence of random file operations (Fig. 12)")
	t.Note("Postmark  | macrobenchmark  | mail server simulation (Fig. 12)")
	t.Note("OLTP      | macrobenchmark  | relational database server serving the SysBench OLTP workload (Fig. 12)")
	t.Note("all four run unmodified against every backend: NeSC VF, virtio, emulation, bare host")
	return []*stats.Table{t}, nil
}
