package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"nesc/internal/blockdev"
	"nesc/internal/cas"
	"nesc/internal/extent"
	"nesc/internal/extfs"
	"nesc/internal/hostmem"
	"nesc/internal/metrics"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/stats"
	"nesc/internal/trace"
)

// probe times one layer's exported functions in isolation. make builds the
// fixture once and returns a function that performs n operations.
type probe struct {
	name   string // metric name without its unit suffix
	us     bool   // report microseconds per op instead of nanoseconds
	allocs bool   // also report heap allocations per op
	make   func() func(n int)
}

const probeBatches = 5

// runProbes runs every probe for about total and returns the metrics. Each
// probe is timed in probeBatches equal batches and the median batch is
// reported, so one noisy neighbour burst does not move the number;
// allocations per op are the MemStats.Mallocs delta over all batches.
func runProbes(total time.Duration) map[string]float64 {
	out := map[string]float64{}
	batch := total / probeBatches
	for _, p := range probes {
		run := p.make()
		run(1) // fault in lazily built state
		n := 1
		for {
			t0 := time.Now()
			run(n)
			if d := time.Since(t0); d >= batch/4 || n >= 1<<28 {
				n = max(int(float64(n)*float64(batch)/float64(max(d, 1))), 1)
				break
			}
			n *= 4
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		perOp := make([]float64, probeBatches)
		for i := range perOp {
			t0 := time.Now()
			run(n)
			perOp[i] = float64(time.Since(t0)) / float64(n)
		}
		runtime.ReadMemStats(&ms1)
		slices.Sort(perOp)
		if med := perOp[probeBatches/2]; p.us {
			out[p.name+"_us"] = med / 1e3
		} else {
			out[p.name+"_ns"] = med
		}
		if p.allocs {
			out[p.name+"_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n*probeBatches)
		}
	}
	return out
}

// inProc adapts a per-iteration body that needs a simulated process: every
// batch spawns one process that loops n times and runs the engine dry.
func inProc(eng *sim.Engine, body func(p *sim.Proc)) func(n int) {
	return func(n int) {
		eng.Go("probe", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				body(p)
			}
		})
		eng.Run()
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("nescperf probe fixture: %v", err))
	}
}

// nullDevice is a PCIe endpoint that ignores every register access.
type nullDevice struct{}

func (nullDevice) PCIeName() string             { return "probe" }
func (nullDevice) MMIORead(int64, int) uint64   { return 0 }
func (nullDevice) MMIOWrite(int64, int, uint64) {}

var probes = []probe{
	{name: "sim.event_dispatch", allocs: true, make: func() func(int) {
		eng := sim.NewEngine()
		return func(n int) {
			for i := 0; i < n; i++ {
				eng.After(sim.Microsecond, func() {})
				eng.Step()
			}
		}
	}},
	{name: "sim.proc_handoff", allocs: true, make: func() func(int) {
		return inProc(sim.NewEngine(), func(p *sim.Proc) { p.Sleep(sim.Microsecond) })
	}},
	{name: "sim.signal_wake", make: func() func(int) {
		eng := sim.NewEngine()
		return inProc(eng, func(p *sim.Proc) {
			s := sim.NewSignal(eng)
			eng.After(sim.Microsecond, s.Fire)
			s.Await(p)
		})
	}},
	{name: "sim.link_transfer", make: func() func(int) {
		eng := sim.NewEngine()
		link := sim.NewLink(eng, 3.2e9, 200*sim.Nanosecond, 24)
		return inProc(eng, func(p *sim.Proc) { link.TransferP(p, 4096) })
	}},

	{name: "ring.desc_codec", make: func() func(int) {
		b := make([]byte, 64)
		return func(n int) {
			for i := 0; i < n; i++ {
				ring.EncodeDescriptorPI(b, 1, uint32(i), uint64(i), 4, 0x1000, 7)
				sink, _, _, _, _, _ = ring.DecodeDescriptorPI(b)
			}
		}
	}},
	{name: "ring.cpl_codec", make: func() func(int) {
		b := make([]byte, 64)
		return func(n int) {
			for i := 0; i < n; i++ {
				ring.EncodeCompletionPI(b, uint32(i), 0, uint32(i), 7)
				sink, _, _, _ = ring.DecodeCompletionPI(b)
			}
		}
	}},
	{name: "ring.pi_guard_4k", make: func() func(int) {
		b := make([]byte, 4096)
		return func(n int) {
			for i := 0; i < n; i++ {
				sink = ring.PIGuard(b, blockSize)
			}
		}
	}},

	{name: "hostmem.alloc_free", make: func() func(int) {
		mem := hostmem.New(1 << 20)
		return func(n int) {
			for i := 0; i < n; i++ {
				a, err := mem.Alloc(256, 8)
				must(err)
				must(mem.Free(a))
			}
		}
	}},
	{name: "hostmem.rw_4k", make: func() func(int) {
		mem := hostmem.New(1 << 20)
		a := mem.MustAlloc(4096, 8)
		b := make([]byte, 4096)
		return func(n int) {
			for i := 0; i < n; i++ {
				must(mem.Write(a, b))
				must(mem.Read(a, b))
			}
		}
	}},

	{name: "extent.lookup", allocs: true, make: func() func(int) {
		mem := hostmem.New(8 << 20)
		tr, err := extent.Build(mem, probeRuns(10000), extent.DefaultFanout)
		must(err)
		return func(n int) {
			for i := 0; i < n; i++ {
				_, err := extent.Lookup(mem, tr.Root(), tr.Fanout(), uint64(i%30000))
				must(err)
			}
		}
	}},
	{name: "extent.rebuild_4k_runs", us: true, make: func() func(int) {
		mem := hostmem.New(8 << 20)
		runs := probeRuns(4096)
		tr, err := extent.Build(mem, runs, extent.DefaultFanout)
		must(err)
		return func(n int) {
			for i := 0; i < n; i++ {
				must(tr.Rebuild(runs))
			}
		}
	}},

	{name: "blockdev.store_rw_4k", make: func() func(int) {
		st := blockdev.NewStore(blockSize, 4096)
		b := make([]byte, 4096)
		return func(n int) {
			for i := 0; i < n; i++ {
				lba := int64(i%1000) * 4
				must(st.WriteBlocks(lba, b))
				must(st.ReadBlocks(lba, b))
			}
		}
	}},
	{name: "blockdev.medium_rw_4k", allocs: true, make: func() func(int) {
		eng := sim.NewEngine()
		med := blockdev.NewMedium(eng, blockdev.NewStore(blockSize, 4096), blockdev.DefaultMediumParams())
		b := make([]byte, 4096)
		i := 0
		return inProc(eng, func(p *sim.Proc) {
			lba := int64(i%1000) * 4
			i++
			must(med.WriteP(p, lba, b))
			must(med.ReadP(p, lba, b))
		})
	}},

	{name: "pcie.dma_4k", allocs: true, make: func() func(int) {
		eng := sim.NewEngine()
		mem := hostmem.New(1 << 20)
		fab := pcie.New(eng, mem, pcie.DefaultParams())
		fn := fab.RegisterFunction("probe")
		a := mem.MustAlloc(4096, 8)
		b := make([]byte, 4096)
		return func(n int) {
			for i := 0; i < n; i++ {
				must(fab.DMAWrite(fn, a, b, func() {}))
				must(fab.DMARead(fn, a, b, func() {}))
				eng.Run()
			}
		}
	}},
	{name: "pcie.mmio_write", make: func() func(int) {
		eng := sim.NewEngine()
		fab := pcie.New(eng, hostmem.New(1<<20), pcie.DefaultParams())
		bar := fab.MapBAR(nullDevice{}, 4096)
		return inProc(eng, func(p *sim.Proc) { must(fab.MMIOWrite(p, bar+8, 4, 1)) })
	}},

	{name: "extfs.write_4k", allocs: true, make: func() func(int) {
		f := probeFile()
		b := make([]byte, 4096)
		i := 0
		return func(n int) {
			for ; n > 0; n-- {
				_, err := f.WriteAt(nil, b, int64(i%4096)*4096)
				must(err)
				i++
			}
		}
	}},
	{name: "extfs.sync", us: true, make: func() func(int) {
		f := probeFile()
		b := make([]byte, 4096)
		i := 0
		return func(n int) {
			for ; n > 0; n-- {
				_, err := f.WriteAt(nil, b, int64(i%1024)*4096)
				must(err)
				must(f.Sync(nil))
				i++
			}
		}
	}},
	{name: "extfs.create_remove", us: true, make: func() func(int) {
		fs := probeFS()
		return func(n int) {
			for i := 0; i < n; i++ {
				_, err := fs.Create(nil, "/tmp", 0, 0o644)
				must(err)
				must(fs.Remove(nil, "/tmp", 0))
			}
		}
	}},

	{name: "cas.hash_4k", make: func() func(int) {
		b := make([]byte, 4096)
		return func(n int) {
			for i := 0; i < n; i++ {
				h := cas.HashOf(b)
				sink = uint32(h[0])
			}
		}
	}},
	{name: "cas.seal_block", make: func() func(int) {
		// Every Seal is a fresh image of up to 64 blocks of unique content in a store
		// that lives for one batch; the cost is reported per block.
		blocks := make([][]byte, 64)
		seq := uint64(0)
		return func(n int) {
			st := cas.NewStore(cas.DefaultParams(blockSize), nil)
			for done := 0; done < n; done += len(blocks) {
				img := blocks[:min(len(blocks), n-done)]
				for i := range img {
					img[i] = make([]byte, blockSize)
					fillBlock(img[i], seq|1)
					seq += 2
				}
				_, err := st.Seal(nil, fmt.Sprintf("img%d", seq), img)
				must(err)
			}
		}
	}},
	{name: "cas.cache_get", make: func() func(int) {
		c := cas.NewCache(64)
		hashes := make([]cas.Hash, 64)
		for i := range hashes {
			hashes[i] = cas.HashOf([]byte{byte(i)})
			c.Put(hashes[i], make([]byte, blockSize))
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				b, _ := c.Get(hashes[i%64])
				sink = uint32(len(b))
			}
		}
	}},

	{name: "metrics.observe", allocs: true, make: func() func(int) {
		// The lookup-then-observe pair is what core's pipeline pays per stage.
		reg := metrics.New()
		return func(n int) {
			for i := 0; i < n; i++ {
				reg.Histogram("probe_ns", "probe", metrics.VFQOp(i%8, 0, "read")).Observe(int64(i))
			}
		}
	}},
	{name: "trace.span", allocs: true, make: func() func(int) {
		rec := trace.NewSpanRecorder(4096)
		return func(n int) {
			for i := 0; i < n; i++ {
				s := rec.Start(1, 0, "read", uint32(i), uint64(i), 4, sim.Time(i))
				s.Phase(trace.PhaseFetch, 0, sim.Time(i), sim.Time(i+1), "")
				s.Phase(trace.PhaseTransIn, 0, sim.Time(i+1), sim.Time(i+2), trace.TagWalk)
				s.Phase(trace.PhaseTransfer, 0, sim.Time(i+2), sim.Time(i+3), "")
				rec.Finish(s, sim.Time(i+3), 0)
			}
		}
	}},
	{name: "slo.attrib_record", allocs: true, make: func() func(int) {
		a := slo.NewAttributor(1024)
		var segs slo.Segments
		segs[slo.SegMedium] = 1000
		return func(n int) {
			for i := 0; i < n; i++ {
				a.Record(i%8, "read", uint64(i), 1500, true, segs)
			}
		}
	}},
	{name: "stats.hist_observe", make: func() func(int) {
		w := stats.NewWindow(256)
		return func(n int) {
			for i := 0; i < n; i++ {
				w.Add(float64(i))
			}
		}
	}},
}

// sink keeps results live so the compiler cannot drop a probed call.
var sink uint32

func probeRuns(n int) []extent.Run {
	runs := make([]extent.Run, n)
	for i := range runs {
		runs[i] = extent.Run{Logical: uint64(i * 3), Physical: uint64(i * 7), Count: 2}
	}
	return runs
}

func probeFS() *extfs.FS {
	fs, err := extfs.Format(nil, extfs.NewMemDev(blockSize, 32<<10),
		extfs.Params{InodeCount: 64, JournalBlocks: 64, Mode: extfs.JournalMetadata})
	must(err)
	return fs
}

func probeFile() *extfs.File {
	f, err := probeFS().Create(nil, "/probe", 0, 0o644)
	must(err)
	return f
}
