package cas

import (
	"bytes"
	"testing"

	"nesc/internal/blockdev"
	"nesc/internal/core"
	"nesc/internal/extfs"
	"nesc/internal/fault"
	"nesc/internal/hostmem"
	"nesc/internal/hypervisor"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/telemetry"
)

// forkWorld is one device whose host filesystem holds /golden.img — 16
// distinct blocks, sealed as "golden" — and /fork.img, a fork of it on the
// same device.
type forkWorld struct {
	h    *hypervisor.Hypervisor
	d    *hypervisor.Device
	tier *Tier
}

const forkBlocks = 16

// goldenBlock is block b's sealed content.
func goldenBlock(b int) []byte { return bytes.Repeat([]byte{byte(0x40 + b)}, 1024) }

// runFork builds a forkWorld whose device reports to obs and whose tier
// reports to tel and fetches at latency, runs body as its main process and
// drives the simulation to quiescence.
func runFork(t *testing.T, obs core.Observer, tel telemetry.Sinks, latency sim.Time, body func(p *sim.Proc, w *forkWorld)) {
	t.Helper()
	eng := sim.NewEngine()
	mem := hostmem.New(64 << 20)
	fab := pcie.New(eng, mem, pcie.DefaultParams())
	cp := core.DefaultParams()
	cp.NumVFs = 4
	ctl, err := core.New(eng, fab, blockdev.NewMedium(eng, blockdev.NewStore(cp.BlockSize, 8192), blockdev.DefaultMediumParams()), cp, obs)
	if err != nil {
		t.Fatal(err)
	}
	h := hypervisor.New(eng, mem, fab, hypervisor.DefaultParams())
	sp := DefaultParams(cp.BlockSize)
	sp.RemoteLatency = latency
	w := &forkWorld{h: h, d: h.AddDevice(ctl), tier: NewTier(NewStore(sp, nil), 64, tel)}
	done := false
	eng.Go("main", func(p *sim.Proc) {
		if err := h.Boot(p, true, extfs.Params{InodeCount: 128, JournalBlocks: 64, Mode: extfs.JournalMetadata}); err != nil {
			t.Fatal(err)
		}
		f, err := w.d.MkImage(p, "/golden.img", 0, forkBlocks, true)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < forkBlocks; b++ {
			if _, err := f.WriteAt(p, goldenBlock(b), int64(b)*1024); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.tier.SealImage(p, w.d, "/golden.img", "golden", 0); err != nil {
			t.Fatal(err)
		}
		if err := w.tier.ForkImage(p, w.d, "golden", "/fork.img", 9); err != nil {
			t.Fatal(err)
		}
		body(p, w)
		done = true
	})
	eng.Run()
	eng.Shutdown()
	if !done {
		t.Fatal("main process deadlocked")
	}
}

// forkFile opens the fork for reading and writing.
func (w *forkWorld) forkFile(t *testing.T, p *sim.Proc) *extfs.File {
	t.Helper()
	f, err := w.d.HostFS.Open(p, "/fork.img", 9, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// A fork's first touch is one miss, and its service is one host-filesystem
// operation (paper Fig. 5b's "filesystem query"): a 4 KB read gathers its four
// chunks and writes them into the fork's holes as one data write, followed by
// its journal record, before the rewalk verdict.
func TestFetchMissIsOneHostFilesystemTransaction(t *testing.T) {
	tap := &missPFRequests{}
	runFork(t, tap, telemetry.Sinks{}, DefaultParams(1024).RemoteLatency, func(p *sim.Proc, w *forkWorld) {
		vm, err := w.h.NewVM(p, "vm", hypervisor.VMConfig{Backend: hypervisor.BackendDirect, DiskPath: "/fork.img", UID: 9})
		if err != nil {
			t.Fatal(err)
		}
		// Any host-filesystem call waits out the boot's last checkpoint.
		if _, err := w.d.HostFS.Stat(p, "/fork.img", 9); err != nil {
			t.Fatal(err)
		}
		ops, misses := w.d.HostFS.Ops, w.h.FetchMisses
		buf := vm.Kernel.AllocBuffer(4096)
		if err := vm.Kernel.SubmitAligned(p, false, 4, buf); err != nil {
			t.Fatal(err)
		}
		if n := w.h.FetchMisses - misses; n != 1 {
			t.Fatalf("the read took %d fetch misses, want 1", n)
		}
		if n := w.d.HostFS.Ops - ops; n != 1 {
			t.Errorf("the fetch miss ran %d host-filesystem operations, want 1", n)
		}
		if tap.reads != 0 || tap.writes != 2 {
			t.Errorf("the fetch miss put %d reads and %d writes on the PF ring before its rewalk verdict, want one data write and its journal record", tap.reads, tap.writes)
		}
		if w.tier.Materializations != 4 {
			t.Errorf("%d blocks materialized, want 4", w.tier.Materializations)
		}
		for i := 0; i < 4; i++ {
			if !bytes.Equal(buf.Data[i*1024:(i+1)*1024], goldenBlock(4+i)) {
				t.Errorf("block %d read back other than its sealed content", 4+i)
			}
		}
	})
}

// A block that is mapped while a materialization waits on its fetches keeps
// what was written there: the fill reads the file's map inside its own
// transaction, after the last fetch. The remote tier answers in 1 ms, so the
// host write lands while the second chunk is in flight.
func TestMaterializeSkipsABlockMappedDuringItsFetch(t *testing.T) {
	runFork(t, nil, telemetry.Sinks{}, sim.Millisecond, func(p *sim.Proc, w *forkWorld) {
		f := w.forkFile(t, p)
		mine := bytes.Repeat([]byte{0xEE}, 1024)
		wrote := sim.NewSignal(p.Engine())
		p.Engine().Go("host write", func(q *sim.Proc) {
			defer wrote.Fire()
			q.Sleep(1500 * sim.Microsecond)
			if _, err := f.WriteAt(q, mine, 9*1024); err != nil {
				t.Error(err)
			}
		})
		if err := w.tier.Materialize(p, w.d, 0, "/fork.img", 8, 2, "read"); err != nil {
			t.Fatal(err)
		}
		wrote.Await(p)
		got := make([]byte, 2048)
		if _, err := f.ReadAt(p, got, 8*1024); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:1024], goldenBlock(8)) {
			t.Error("block 8 does not hold its sealed content")
		}
		if !bytes.Equal(got[1024:], mine) {
			t.Error("the materialization wrote over block 9, which a host write mapped during its fetch")
		}
		if w.tier.Materializations != 1 {
			t.Errorf("%d blocks materialized, want 1", w.tier.Materializations)
		}
	})
}

// A materialization credits its tenant's row once per fill, with the fill's
// own time: the medium segment is what the call took beyond its fetches.
func TestMaterializeCreditsTheFillOnce(t *testing.T) {
	tel := telemetry.Sinks{Attrib: slo.NewAttributor(16)}
	runFork(t, nil, tel, DefaultParams(1024).RemoteLatency, func(p *sim.Proc, w *forkWorld) {
		start := p.Now()
		if err := w.tier.Materialize(p, w.d, 2, "/fork.img", 0, 4, "read"); err != nil {
			t.Fatal(err)
		}
		elapsed := int64(p.Now() - start)
		row := tel.Attrib.Row(3, "read")
		fetch, medium := row.SegNs[slo.SegFabricWait], row.SegNs[slo.SegMedium]
		if fetch == 0 || medium == 0 || fetch+medium != elapsed {
			t.Errorf("credited %d ns fetching and %d ns writing; the call took %d ns", fetch, medium, elapsed)
		}
	})
}

// missPFRequests counts the PF read and write requests that complete between
// a miss latching and the hypervisor's rewalk verdict for it.
type missPFRequests struct {
	servicing     bool
	reads, writes int
}

func (o *missPFRequests) Stage(*core.Request, core.Step) {}

func (o *missPFRequests) Finish(r *core.Request, _ sim.Time) {
	if !o.servicing || r.Fn() != 0 {
		return
	}
	switch r.Op {
	case ring.OpRead:
		o.reads++
	case ring.OpWrite:
		o.writes++
	}
}

func (o *missPFRequests) Event(e core.Event) {
	switch e.Kind {
	case core.EvMiss:
		o.servicing, o.reads, o.writes = true, 0, 0
	case core.EvRewalk:
		o.servicing = false
	}
}

// Two misses on one device that need the same chunk at once share its remote
// fetch: the second waits for the first's and takes the chunk from the cache.
// When the first fetch fails, the waiter fetches for itself.
func TestConcurrentFirstTouchesShareOneFetch(t *testing.T) {
	for _, tc := range []struct {
		name          string
		failFirst     bool
		fetches, errs int64
	}{
		{"fetch succeeds", false, 1, 0},
		{"fetch fails", true, fetchRetryMax + 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runFork(t, nil, telemetry.Sinks{}, DefaultParams(1024).RemoteLatency, func(p *sim.Proc, w *forkWorld) {
				if tc.failFirst {
					plan := fault.Plan{Seed: 1}
					for n := int64(1); n <= fetchRetryMax+1; n++ {
						plan.Sites[fault.RemoteFetch].OneShot = append(plan.Sites[fault.RemoteFetch].OneShot, n)
					}
					w.tier.Store.Inj = fault.NewInjector(plan)
				}
				before := w.tier.Store.Stats().RemoteFetches
				var errs int64
				done := sim.NewWaitGroup(p.Engine())
				for vf := 0; vf < 2; vf++ {
					done.Add(1)
					p.Engine().Go("miss", func(q *sim.Proc) {
						defer done.Done()
						if err := w.tier.Materialize(q, w.d, vf, "/fork.img", 5, 1, "read"); err != nil {
							errs++
						}
					})
				}
				done.WaitFor(p)
				if n := w.tier.Store.Stats().RemoteFetches - before; n != tc.fetches || errs != tc.errs {
					t.Errorf("two concurrent first touches of one chunk made %d remote fetches and %d failed, want %d and %d", n, errs, tc.fetches, tc.errs)
				}
				got := make([]byte, 1024)
				if _, err := w.forkFile(t, p).ReadAt(p, got, 5*1024); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, goldenBlock(5)) || w.tier.Materializations != 1 {
					t.Errorf("block 5 holds %#x... after %d materializations, want its sealed content once", got[:2], w.tier.Materializations)
				}
			})
		})
	}
}
