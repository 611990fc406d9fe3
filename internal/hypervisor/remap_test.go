package hypervisor

import (
	"fmt"
	"slices"
	"testing"

	"nesc/internal/core"
	"nesc/internal/extent"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Two VFs exporting one sparse file take lazy-allocation misses at the same
// time, so one handler sweep services both and their remaps of the shared
// tree interleave. Afterwards every sharer's root register must name the
// tree's root and the serialized tree must be the file's extent map.
func TestConcurrentSharerMissesLeaveOneTree(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		if _, err := w.d.MkImage(p, "/shared.img", 0, 512, true); err != nil {
			t.Fatal(err)
		}
		var vms [2]*VM
		for i := range vms {
			vm, err := w.h.NewVM(p, fmt.Sprintf("vm%d", i), VMConfig{Backend: BackendDirect, DiskPath: "/shared.img", UID: 0})
			if err != nil {
				t.Fatal(err)
			}
			vms[i] = vm
		}
		if !w.d.SharesTreeWith(vms[0].Legs[0].VFIdx, vms[1].Legs[0].VFIdx) {
			t.Fatal("two VFs on one file did not share the extent tree")
		}
		for round := 0; round < 4; round++ {
			var done [2]*sim.Signal
			for i, vm := range vms {
				i, vm := i, vm
				done[i] = sim.NewSignal(w.eng)
				w.eng.Go(fmt.Sprintf("writer%d", i), func(q *sim.Proc) {
					defer done[i].Fire()
					buf := vm.Kernel.AllocBuffer(1024)
					buf.Data[0] = byte(0xA0 + i)
					// Far-apart holes, so every write adds an extent.
					if err := vm.Kernel.SubmitAligned(q, true, int64(16*round+128*i), buf); err != nil {
						t.Errorf("writer %d: %v", i, err)
					}
				})
			}
			done[0].Await(p)
			done[1].Await(p)
		}
		if w.h.MissInterrupts < 8 {
			t.Fatalf("%d miss services, want one per write", w.h.MissInterrupts)
		}
		tree := w.d.VFTree(vms[0].Legs[0].VFIdx)
		for i, vm := range vms {
			if got := w.h.mmioR(p, w.d.mgmtAddr(vm.Legs[0].VFIdx)+ring.MgmtTreeRoot); int64(got) != tree.Root() {
				t.Fatalf("VF of vm%d walks root %#x, the shared tree's is %#x", i, got, tree.Root())
			}
		}
		want := w.d.vf(vms[0].Legs[0].VFIdx).shared.file.Extents()
		got, err := extent.CollectRuns(w.mem, tree.Root(), tree.Fanout())
		if err != nil || len(want) != 8 || !slices.Equal(got, want) {
			t.Fatalf("serialized tree %+v (%v), file's extent map %+v", got, err, want)
		}
	})
}

// A miss is one host-filesystem operation (paper Fig. 5b's "filesystem
// query", which MissHandlerTime prices): the export holds the file open, so
// the service allocates or breaks the share through the handle and rebuilds
// the tree from the inode's own extent map, resolving no path and reading no
// directory. The device latches the rest of the request, so a 4 KB write
// takes one service as a 1 KB write does. Both a lazy-allocation miss and a
// CoW-break miss count exactly one HostFS operation, and a broken 4 KB share
// is one private run, not four. On the PF ring before the rewalk verdict each
// puts its data as one run — the zero fill, or the copy's one read and one
// write — and one journal write, the record: the checkpoint runs after the
// verdict.
func TestMissServiceIsOneHostFilesystemOperation(t *testing.T) {
	tap := &missPFRequests{}
	w := newWorldCore(t, 8192, nil, nil, tap)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, true)
		write := func(what string, lba, blocks, cow int64, reads int) {
			t.Helper()
			// Any host-filesystem call waits out the last miss's checkpoint.
			if _, err := w.d.HostFS.Stat(p, "/disk.img", 0); err != nil {
				t.Fatal(err)
			}
			ops, misses, breaks := w.d.HostFS.Ops, w.h.MissInterrupts, w.h.CowBreaks
			if err := vm.Kernel.SubmitAligned(p, true, lba, vm.Kernel.AllocBuffer(1024*blocks)); err != nil {
				t.Fatal(err)
			}
			if n := w.h.MissInterrupts - misses; n != 1 || w.h.CowBreaks-breaks != cow {
				t.Fatalf("%s: %d miss services, %d CoW breaks; want one miss", what, n, w.h.CowBreaks-breaks)
			}
			if n := w.d.HostFS.Ops - ops; n != 1 {
				t.Errorf("%s miss ran %d host-filesystem operations, want 1", what, n)
			}
			if tap.reads != reads || tap.writes != 2 {
				t.Errorf("%s miss put %d reads and %d writes on the PF ring before its rewalk verdict, want %d reads, one data write and its journal record", what, tap.reads, tap.writes, reads)
			}
		}
		write("lazy-allocation", 5, 1, 0, 0)
		write("4 KB lazy-allocation", 8, 4, 0, 0)
		if err := w.d.SnapshotVF(p, vm.Legs[0].VFIdx, "/disk.snap", 9); err != nil {
			t.Fatal(err)
		}
		write("CoW-break", 5, 1, 1, 1)
		write("4 KB CoW-break", 8, 4, 1, 1)
		var over []extent.Run
		for _, r := range w.d.vf(vm.Legs[0].VFIdx).shared.file.Extents() {
			if r.Logical < 12 && r.End() > 8 {
				over = append(over, r)
			}
		}
		if len(over) != 1 || over[0].Logical > 8 || over[0].End() < 12 || over[0].Protected() {
			t.Errorf("blocks 8-11 after the CoW write map as %+v, want one private run", over)
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

// A read that meets a pruned subtree latches a translate miss, and its
// service only regenerates the tree: no host-filesystem call and no block
// allocated, though the latch covers the rest of the request. Its holes
// still read as zeros.
func TestReadMissAllocatesNothing(t *testing.T) {
	w := newWorld(t, 16384, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.fragVM(t, p)
		file := w.d.vf(vm.Legs[0].VFIdx).shared.file
		runs := slices.Clone(file.Extents())
		if freed := w.d.PruneVFTrees(20); freed == 0 {
			t.Fatal("nothing pruned")
		}
		buf := vm.Kernel.AllocBuffer(4096) // blocks 11-14: hole, extent 6, hole, extent 7
		for i := range buf.Data {
			buf.Data[i] = 0xEE
		}
		ops, misses := w.d.HostFS.Ops, w.h.MissInterrupts
		if err := vm.Kernel.SubmitAligned(p, false, 11, buf); err != nil {
			t.Fatal(err)
		}
		if n := w.h.MissInterrupts - misses; n != 1 {
			t.Fatalf("the read took %d misses, want 1", n)
		}
		if n := w.d.HostFS.Ops - ops; n != 0 {
			t.Errorf("the read's miss ran %d host-filesystem operations, want 0", n)
		}
		if got := file.Extents(); !slices.Equal(got, runs) {
			t.Errorf("the file's extents went from %+v to %+v", runs, got)
		}
		for i, want := range []byte{0, 6, 0, 7} {
			if got := buf.Data[i*1024]; got != want {
				t.Errorf("block %d read %#x, want %#x", 11+i, got, want)
			}
		}
	})
}

// A miss edits only the tree's path to the missed range, but a pruned tree has
// no path to edit there: its next miss regenerates the whole tree, so a read
// of a second range the prune detached takes no miss of its own.
func TestPrunedTreesNextMissRebuildsItInFull(t *testing.T) {
	w := newWorld(t, 16384, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.fragVM(t, p)
		tree := w.d.VFTree(vm.Legs[0].VFIdx)
		nodes := tree.Nodes()
		if freed := w.d.PruneVFTrees(20); freed != 22 {
			t.Fatalf("pruned %d nodes, want the first two inner nodes' subtrees (22)", freed)
		}
		buf := vm.Kernel.AllocBuffer(1024)
		read := func(i int, wantMisses int64) {
			t.Helper()
			before := w.h.MissInterrupts
			if err := vm.Kernel.SubmitAligned(p, false, int64(i)*2, buf); err != nil {
				t.Fatal(err)
			}
			if buf.Data[0] != byte(i) {
				t.Fatalf("extent %d read %#x", i, buf.Data[0])
			}
			if got := w.h.MissInterrupts - before; got != wantMisses {
				t.Fatalf("a read of extent %d took %d misses, want %d", i, got, wantMisses)
			}
		}
		read(5, 1) // under the first pruned inner node: regenerates
		if tree.Nodes() != nodes {
			t.Fatalf("the regenerated tree has %d nodes, the one built at export %d", tree.Nodes(), nodes)
		}
		read(150, 0) // under the second: already back
	})
}

// fragVM boots the host and exports /frag.img: 300 one-block extents at every
// other block, extent i's first byte i — 30 leaves under 3 inner nodes under
// the root.
func (w *world) fragVM(t *testing.T, p *sim.Proc) *VM {
	t.Helper()
	w.boot(t, p)
	f, err := w.d.HostFS.Create(p, "/frag.img", 3, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, 1024)
	for i := 0; i < 300; i++ {
		blk[0] = byte(i)
		if _, err := f.WriteAt(p, blk, int64(i)*2048); err != nil {
			t.Fatal(err)
		}
	}
	vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/frag.img", UID: 3})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// lazySource is a FetchSource whose first service materializes nothing; later
// ones allocate the range.
type lazySource struct{ calls int }

func (s *lazySource) Materialize(p *sim.Proc, d *Device, vf int, _ string, blk, n uint64, _ string) error {
	if s.calls++; s.calls == 1 {
		return nil
	}
	return d.vf(vf).shared.file.Allocate(p, blk, n)
}

// A service that leaves the missed block as the walk found it gets no retry:
// the walk would miss again at once, and with a source that never made
// progress, for ever. The walk fails instead, and the hypervisor counts it.
func TestMissWithoutProgressFailsTheWalk(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkSparseImage(t, p, "/disk.img", 9, 64)
		w.d.Fetch["/disk.img"] = &lazySource{}
		vm, err := w.h.NewVM(p, "vm0", VMConfig{Backend: BackendDirect, DiskPath: "/disk.img", UID: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Kernel.SubmitAligned(p, false, 3, vm.Kernel.AllocBuffer(1024)); err == nil {
			t.Error("a read whose miss service materialized nothing succeeded")
		}
		if w.h.MissInterrupts != 1 || w.h.MissNoProgress != 1 {
			t.Errorf("%d miss services, %d without progress; want 1 and 1", w.h.MissInterrupts, w.h.MissNoProgress)
		}
	})
}

// A verify checks the media blocks behind its range, and a hole has none: it
// passes without a miss and allocates nothing, as a read of the hole would.
// Were it to miss, the service would have nothing to do for it, and the
// re-walk would miss again for ever.
func TestVerifyOfAHoleTakesNoMiss(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, true)
		idx := vm.Legs[0].VFIdx
		ops := w.d.HostFS.Ops
		done := sim.NewSignal(w.eng)
		var st uint32
		var err error
		w.eng.Go("verify", func(q *sim.Proc) {
			st, err = vm.Legs[0].Drv.QueuePair().Submit(q, ring.OpVerify, 3, 4, 0)
			done.Fire()
		})
		if !done.AwaitTimeout(p, sim.Millisecond) {
			t.Errorf("a verify of a hole is still running after 1 ms, %d misses in", w.h.MissInterrupts)
			_ = w.d.ResetVF(p, idx) // release the walker so the run ends
			done.Await(p)
			return
		}
		if err != nil || st != ring.StatusOK {
			t.Errorf("verify of a hole: status %d, %v", st, err)
		}
		if w.h.MissInterrupts != 0 || w.d.HostFS.Ops != ops || len(w.d.vf(idx).shared.file.Extents()) != 0 {
			t.Errorf("%d misses, %d host-filesystem operations, extents %+v; want none",
				w.h.MissInterrupts, w.d.HostFS.Ops-ops, w.d.vf(idx).shared.file.Extents())
		}
	})
}

// A service is judged on the tree as its own edit left it. A prune that runs
// while the service still writes the new root to the sharers is not its
// doing: the CoW write retries, misses on the pruned path and completes.
func TestPruneDuringAServiceDoesNotFailIt(t *testing.T) {
	w := newWorld(t, 16384, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.fragVM(t, p)
		if _, err := w.h.NewVM(p, "sharer", VMConfig{Backend: BackendDirect, DiskPath: "/frag.img", UID: 3}); err != nil {
			t.Fatal(err)
		}
		if err := w.d.SnapshotVF(p, vm.Legs[0].VFIdx, "/frag.snap", 3); err != nil {
			t.Fatal(err)
		}
		tree := w.d.VFTree(vm.Legs[0].VFIdx)
		root, breaks, misses := tree.Root(), w.h.CowBreaks, w.h.MissInterrupts
		pruned := 0
		w.eng.Go("pruner", func(q *sim.Proc) {
			// The CoW service has edited the tree but not yet finished.
			for tree.Root() == root || w.h.CowBreaks != breaks {
				q.Sleep(100 * sim.Nanosecond)
			}
			pruned = w.d.PruneVFTrees(1000)
		})
		if err := vm.Kernel.SubmitAligned(p, true, 10, vm.Kernel.AllocBuffer(1024)); err != nil {
			t.Fatalf("a CoW write whose tree was pruned mid-service: %v", err)
		}
		if pruned == 0 || w.h.MissNoProgress != 0 || w.h.MissInterrupts-misses != 2 {
			t.Errorf("pruned %d nodes; %d misses, %d without progress; want some, 2 and 0",
				pruned, w.h.MissInterrupts-misses, w.h.MissNoProgress)
		}
	})
}
