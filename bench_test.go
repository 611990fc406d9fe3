package nesc

// Benchmark harness: one testing.B benchmark per paper artifact (Tables
// I–II are descriptive and covered by the experiment registry; every figure
// has a bench below), plus ablation and primitive microbenchmarks.
//
// Figure benches report the *simulated* metric the paper's figure plots
// (sim-us/op, sim-MB/s, speedup-x) via b.ReportMetric; wall-clock ns/op
// measures the simulator itself. The full sweeps behind each figure are
// regenerated by `go run ./cmd/nescbench -exp <name>`.

import (
	"fmt"
	"testing"

	"nesc/internal/bench"
	"nesc/internal/extent"
	"nesc/internal/extfs"
	"nesc/internal/hostmem"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/workload"
)

// benchRawOp measures b.N dd operations of blockBytes on one raw backend and
// reports the simulated per-op latency and bandwidth.
func benchRawOp(b *testing.B, backend string, blockBytes int, write bool) {
	b.Helper()
	cfg := bench.DefaultConfig()
	pl := bench.NewPlatform(cfg)
	var elapsed sim.Time
	err := pl.Run(func(p *sim.Proc) error {
		tgt, err := pl.RawTarget(p, backend, 64*1024)
		if err != nil {
			return err
		}
		// Warm-up outside the measurement.
		if _, err := (workload.DD{BlockBytes: blockBytes, TotalBytes: int64(4 * blockBytes), Write: write}).Run(p, tgt); err != nil {
			return err
		}
		b.ResetTimer()
		dd := workload.DD{BlockBytes: blockBytes, TotalBytes: int64(b.N) * int64(blockBytes), Write: write}
		res, err := dd.Run(p, tgt)
		if err != nil {
			return err
		}
		elapsed = res.Elapsed
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	perOp := float64(elapsed) / float64(b.N) / 1000 // us
	b.ReportMetric(perOp, "sim-us/op")
	b.ReportMetric(float64(blockBytes)/perOp, "sim-MB/s")
	b.SetBytes(int64(blockBytes))
}

// --- Figure 9: raw access latency ---

func BenchmarkFig9Latency_NeSC_1KBWrite(b *testing.B)   { benchRawOp(b, bench.BackendNeSC, 1024, true) }
func BenchmarkFig9Latency_Host_1KBWrite(b *testing.B)   { benchRawOp(b, bench.BackendHost, 1024, true) }
func BenchmarkFig9Latency_Virtio_1KBWrite(b *testing.B) { benchRawOp(b, bench.BackendVirt, 1024, true) }
func BenchmarkFig9Latency_Emulation_1KBWrite(b *testing.B) {
	benchRawOp(b, bench.BackendEmul, 1024, true)
}

// --- Figure 10: raw bandwidth ---

func BenchmarkFig10Bandwidth_NeSC_32KBRead(b *testing.B) {
	benchRawOp(b, bench.BackendNeSC, 32768, false)
}
func BenchmarkFig10Bandwidth_NeSC_32KBWrite(b *testing.B) {
	benchRawOp(b, bench.BackendNeSC, 32768, true)
}
func BenchmarkFig10Bandwidth_Virtio_32KBRead(b *testing.B) {
	benchRawOp(b, bench.BackendVirt, 32768, false)
}

// --- Figure 2: direct assignment vs virtio on a fast device ---

func BenchmarkFig2DirectVsVirtio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		direct, vio, err := bench.Fig2Point(bench.DefaultConfig(), 3600e6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(direct/vio, "speedup-x")
	}
}

// --- Figure 11: filesystem overhead on NeSC ---

func BenchmarkFig11FilesystemOverhead_NeSCAppend4KB(b *testing.B) {
	cfg := bench.DefaultConfig()
	pl := bench.NewPlatform(cfg)
	var elapsed sim.Time
	err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.Hyp.Device(0).MkImage(p, "/fs.img", 1, 64*1024, false); err != nil {
			return err
		}
		vm, err := pl.Hyp.NewVM(p, "vm", hypervisor.VMConfig{
			Backend: hypervisor.BackendDirect, DiskPath: "/fs.img", UID: 1,
		})
		if err != nil {
			return err
		}
		gfs, err := vm.Kernel.Mount(p, true, extfs.Params{InodeCount: 64, Mode: extfs.JournalNone})
		if err != nil {
			return err
		}
		f, err := gfs.Create(p, "/out", 0, 0o644)
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		b.ResetTimer()
		start := p.Now()
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteAt(p, buf, int64(i%8192)*4096); err != nil {
				return err
			}
		}
		elapsed = p.Now() - start
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(elapsed)/float64(b.N)/1000, "sim-us/op")
}

// --- Figure 12: application workloads ---

func benchApp(b *testing.B, app string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		elapsed, err := bench.Fig12App(bench.DefaultConfig(), app, bench.BackendNeSC)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(elapsed)/float64(sim.Millisecond), "sim-ms/run")
	}
}

func BenchmarkFig12Application_OLTP(b *testing.B)     { benchApp(b, "OLTP") }
func BenchmarkFig12Application_Postmark(b *testing.B) { benchApp(b, "Postmark") }
func BenchmarkFig12Application_SysBench(b *testing.B) { benchApp(b, "SysBench") }

// --- Ablations ---

func BenchmarkAblationBTLB_RandomRead(b *testing.B) {
	for _, entries := range []int{0, 8} {
		name := "btlb8"
		if entries == 0 {
			name = "btlb0"
		}
		b.Run(name, func(b *testing.B) {
			cfg := bench.DefaultConfig()
			cfg.Core.BTLBEntries = entries
			pl := bench.NewPlatform(cfg)
			var elapsed sim.Time
			err := pl.Run(func(p *sim.Proc) error {
				tgt, err := pl.RawTarget(p, bench.BackendNeSC, 64*1024)
				if err != nil {
					return err
				}
				sb := workload.SysbenchIO{FileBytes: tgt.Size(), Ops: b.N, RequestBytes: 1024, ReadRatio: 1, Seed: 3}
				b.ResetTimer()
				res, err := sb.Run(p, tgt)
				if err != nil {
					return err
				}
				elapsed = res.Elapsed
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(elapsed)/float64(b.N)/1000, "sim-us/op")
		})
	}
}

// --- Primitive microbenchmarks (wall-clock performance of the simulator) ---

func BenchmarkEngineEventDispatch(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Microsecond, func() {})
		eng.Step()
	}
}

func BenchmarkProcHandoff(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	eng.Go("bench", func(p *sim.Proc) {
		for n < b.N {
			p.Sleep(sim.Microsecond)
			n++
		}
	})
	b.ResetTimer()
	eng.Run()
	eng.Shutdown()
}

// BenchmarkSignalWake is one completion hand-off: an event fires a signal, the
// waiter is woken through the queue and resumes.
func BenchmarkSignalWake(b *testing.B) {
	eng := sim.NewEngine()
	eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			s := sim.NewSignal(eng)
			eng.After(sim.Microsecond, s.Fire)
			s.Await(p)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// BenchmarkFIFOPingPong bounces a token between two processes over a pair of
// one-slot queues: two blocking pops, two wakes and two resumes per op.
func BenchmarkFIFOPingPong(b *testing.B) {
	eng := sim.NewEngine()
	ping, pong := sim.NewFIFO[int](eng, 1), sim.NewFIFO[int](eng, 1)
	eng.Go("echo", func(p *sim.Proc) {
		for {
			pong.Push(p, ping.Pop(p))
		}
	})
	eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Push(p, i)
			pong.Pop(p)
		}
	})
	b.ResetTimer()
	eng.Run()
	eng.Shutdown()
}

func BenchmarkExtentTreeBuild(b *testing.B) {
	runs := make([]extent.Run, 1000)
	for i := range runs {
		runs[i] = extent.Run{Logical: uint64(i * 3), Physical: uint64(i * 7), Count: 2}
	}
	mem := hostmem.New(64 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := extent.Build(mem, runs, extent.DefaultFanout)
		if err != nil {
			b.Fatal(err)
		}
		tr.Free()
	}
}

func BenchmarkExtentTreeLookup(b *testing.B) {
	runs := make([]extent.Run, 10000)
	for i := range runs {
		runs[i] = extent.Run{Logical: uint64(i * 3), Physical: uint64(i * 7), Count: 2}
	}
	mem := hostmem.New(64 << 20)
	tr, err := extent.Build(mem, runs, extent.DefaultFanout)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extent.Lookup(mem, tr.Root(), tr.Fanout(), uint64(i%30000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHostmemAllocFree(b *testing.B) {
	mem := hostmem.New(16 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := mem.Alloc(256, 8)
		if err != nil {
			b.Fatal(err)
		}
		if err := mem.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

// fragmentedMem returns a host memory whose free list is 256 node-sized holes
// (every other one of 512 extent-node allocations freed) and the tail: the
// shape a platform's memory has once trees have been rebuilt a few times. The
// one-region memory of BenchmarkHostmemAllocFree, and of nescperf's
// hostmem.alloc_free probe, cannot show a cost that grows with the free list.
func fragmentedMem(b *testing.B) *hostmem.Memory {
	mem := hostmem.New(64 << 20)
	var nodes []hostmem.Addr
	for i := 0; i < 512; i++ {
		nodes = append(nodes, mem.MustAlloc(extent.NodeBytes(extent.DefaultFanout), 8))
	}
	for i := 0; i < len(nodes); i += 2 {
		if err := mem.Free(nodes[i]); err != nil {
			b.Fatal(err)
		}
	}
	return mem
}

func BenchmarkHostmemAllocFreeFragmented(b *testing.B) {
	mem := fragmentedMem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := mem.Alloc(extent.NodeBytes(extent.DefaultFanout), 8)
		if err != nil {
			b.Fatal(err)
		}
		if err := mem.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeRebuild is one translation-miss service's tree work: the
// whole mapping reserialized next to the old tree, which is then freed.
func BenchmarkTreeRebuild(b *testing.B) {
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			runs := make([]extent.Run, n)
			for i := range runs {
				runs[i] = extent.Run{Logical: uint64(i * 3), Physical: uint64(i * 7), Count: 2}
			}
			tr, err := extent.Build(fragmentedMem(b), runs, extent.DefaultFanout)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.Rebuild(runs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtfsWrite4KB(b *testing.B) {
	dev := extfs.NewMemDev(1024, 256*1024)
	fs, err := extfs.Format(nil, dev, extfs.Params{InodeCount: 64, JournalBlocks: 64, Mode: extfs.JournalMetadata})
	if err != nil {
		b.Fatal(err)
	}
	f, err := fs.Create(nil, "/bench", 0, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(nil, buf, int64(i%32768)*4096); err != nil {
			b.Fatal(err)
		}
	}
}
