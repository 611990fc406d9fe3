package core

import (
	"bytes"
	"testing"

	"nesc/internal/extent"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// An FLR and a disable each end a latched miss with chunks parked behind it:
// the write that missed (four chunks, two of which walked) and a read of
// mapped blocks that arrived while the miss was latched. Every parked chunk
// retires aborted and the list is empty afterwards.
func TestParkedChunksRetireAbortedOnFLRAndDisable(t *testing.T) {
	for _, end := range []string{"flr", "disable"} {
		t.Run(end, func(t *testing.T) {
			r := newRig(t, smallParams())
			vf := r.ctl.VF(0)
			parked := 0
			r.eng.Go("test", func(p *sim.Proc) {
				buf := r.mem.MustAlloc(4096, 64)
				d := r.vf0(p, extent.Run{Logical: 0, Physical: 100, Count: 8})
				// No miss handler: the write into the hole stays latched.
				d.submit(p, descriptor(ring.OpWrite, 1, 32, 4, buf), descriptor(ring.OpRead, 2, 0, 4, buf))
				p.Sleep(100 * sim.Microsecond)
				parked = len(vf.parked)
				if end == "flr" {
					r.mmioW(p, d.pageOff+ring.RegReset, 1)
				} else {
					r.mmioW(p, r.bar+r.ctl.MgmtPageOffset()+ring.MgmtEnable, 0)
				}
				for r.mmioR(p, d.pageOff+ring.RegReset) != 0 {
					p.Sleep(5 * sim.Microsecond)
				}
			})
			r.run()
			if parked != 8 {
				t.Fatalf("%d chunks parked behind the miss, want all 8", parked)
			}
			if r.ctl.AbortedChunks != 8 {
				t.Errorf("%d chunks retired aborted, want the 8 parked", r.ctl.AbortedChunks)
			}
			if len(vf.parked) != 0 || len(r.ctl.unparked) != 0 || vf.missPending || vf.Inflight() != 0 {
				t.Errorf("after the %s: %d chunks parked, %d functions handed back, miss latched %v, %d requests in flight",
					end, len(vf.parked), len(r.ctl.unparked), vf.missPending, vf.Inflight())
			}
		})
	}
}

// VF 0 and VF 1 walk one tree whose extent [0, 8) is write-protected at pLBA
// 100, a snapshot's block. VF 0's write of block 0 takes a CoW fault. While
// its service runs, VF 1's read of block 0 walks the old tree, and the service
// publishes the broken share while that walk is out: block 0 now lives
// privately at pLBA 600, both VFs get the new root, and both BTLBs lose the
// range. The walk must not cache the pre-break extent, or VF 1's next read of
// block 0, after VF 0's write completed, returns the snapshot's old block.
func TestSharerWalkAcrossACowBreakIsNotCached(t *testing.T) {
	r := newRig(t, smallParams())
	bs := r.ctl.P.BlockSize
	old, mine := bytes.Repeat([]byte{0x0D}, bs), bytes.Repeat([]byte{0xA1}, bs)
	if err := r.ctl.Medium.Store().WriteBlocks(100, old); err != nil {
		t.Fatal(err)
	}
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 100, Count: 8, Flags: extent.FlagProtected}})
	var writer, sharer *dev
	wbuf, rbuf := r.mem.MustAlloc(int64(bs), 64), r.mem.MustAlloc(int64(bs), 64)
	wrote := sim.NewSignal(r.eng)
	r.eng.Go("writer", func(p *sim.Proc) {
		if err := r.mem.Write(wbuf, mine); err != nil {
			t.Error(err)
		}
		r.setVF(p, 0, tr.Root(), 64)
		r.setVF(p, 1, tr.Root(), 64)
		writer, sharer = r.openFunction(p, 1), r.openFunction(p, 2)
		if st := writer.io(p, ring.OpWrite, 0, 1, wbuf); st != ring.StatusOK {
			t.Errorf("VF 0's write: status %d", st)
		}
		wrote.Fire()
	})
	for r.missMSIs == 0 && r.eng.Step() {
	}
	var second []byte
	r.eng.Go("sharer", func(p *sim.Proc) {
		sharer.io(p, ring.OpRead, 0, 1, rbuf) // concurrent with the write: either content
		wrote.Await(p)
		if st := sharer.io(p, ring.OpRead, 0, 1, rbuf); st != ring.StatusOK {
			t.Errorf("VF 1's read after the write: status %d", st)
		}
		second = make([]byte, bs)
		if err := r.mem.Read(rbuf, second); err != nil {
			t.Error(err)
		}
	})
	// Run until VF 1's walk has read the old root node and parses it.
	for r.ctl.WalkNodeReads < 2 && r.eng.Step() {
	}
	if r.ctl.WalkNodeReads != 2 || r.ctl.VF(1).treeRoot != tr.Root() {
		t.Fatalf("%d node reads: the sharer's walk is not out on the old tree", r.ctl.WalkNodeReads)
	}
	// The CoW break's service, published at this instant: the private copy
	// of block 0, a new tree for both sharers, both BTLBs invalidated, then
	// the verdict that releases VF 0's write.
	if err := r.ctl.Medium.Store().WriteBlocks(600, old); err != nil {
		t.Fatal(err)
	}
	broken := r.buildTree([]extent.Run{
		{Logical: 0, Physical: 600, Count: 1},
		{Logical: 1, Physical: 101, Count: 7, Flags: extent.FlagProtected},
	})
	mgmt := r.ctl.MgmtPageOffset()
	for fn := 1; fn <= 2; fn++ {
		r.ctl.MMIOWrite(mgmt+int64(fn-1)*ring.MgmtStride+ring.MgmtTreeRoot, 8, uint64(broken.Root()))
		r.ctl.MMIOWrite(ring.PFRegInvVLBA, 8, 0)
		r.ctl.MMIOWrite(ring.PFRegInvCount, 8, 1)
		r.ctl.MMIOWrite(ring.PFRegInvFn, 8, uint64(fn))
	}
	r.ctl.MMIOWrite(mgmt+ring.MgmtRewalk, 8, ring.RewalkRetry)
	r.run()
	if !bytes.Equal(second, mine) {
		t.Fatalf("VF 1 read block 0 after VF 0's write completed and got %#x..., not the write's %#x...", second[:4], mine[:4])
	}
	if !bytes.Equal(r.stored(600, 1), mine) || !bytes.Equal(r.stored(100, 1), old) {
		t.Error("the write did not land on the private copy, or touched the snapshot's block")
	}
}
