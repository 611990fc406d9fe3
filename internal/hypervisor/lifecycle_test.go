package hypervisor

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"nesc/internal/extfs"
	"nesc/internal/sim"
)

// The VF lifecycle matrix (DESIGN.md §12): a transition in flight on VF A
// against one arriving on the same VF while it runs, the arrival swept across
// the instants the in-flight one parks at. VF B exports the same image, so
// every remap and invalidation has a second sharer to reach and a teardown a
// second VF to take down; and a guest write into a hole lands 2 µs into every
// in-flight transition, so a miss arrives while the transition holds A's lock.

const (
	lcImage  = "/lc.img"
	lcUID    = 100
	lcBlocks = 256 // [0, 128) allocated, [128, 256) holes
	// lcPoints is how many of an in-flight transition's instants each arrival
	// is swept across.
	lcPoints = 24
	// lcLimit is the virtual time by which every cell must have drained.
	lcLimit = 50 * sim.Millisecond
)

// lcScene is one run of a cell: the world, the two VMs, A's VF, and the guest
// writes acknowledged so far (block → fill byte), each to a block of its own.
type lcScene struct {
	w     *world
	a, b  *VM
	idx   int
	acked map[int64]byte
}

// write has the guest write fill over block blk through A and records the
// write once it is acknowledged.
func (s *lcScene) write(p *sim.Proc, blk int64, fill byte) {
	buf := s.a.Kernel.AllocBuffer(1024)
	for i := range buf.Data {
		buf.Data[i] = fill
	}
	if s.a.Kernel.SubmitAligned(p, true, blk, buf) == nil {
		s.acked[blk] = fill
	}
}

// lcOp is a transition as the matrix starts it: prep readies the scene (an
// in-flight transition's precondition), run is the transition. Their errors
// are not the matrix's business — a transition arriving after a teardown
// fails by design — only what they leave behind is.
type lcOp struct {
	name string
	prep func(s *lcScene, p *sim.Proc) error
	run  func(s *lcScene, p *sim.Proc)
}

// lcSnapshotBase write-protects A's image with a snapshot that stays.
func lcSnapshotBase(s *lcScene, p *sim.Proc) error {
	return s.w.d.SnapshotVF(p, s.idx, "/lc.base", lcUID)
}

var (
	lcMigration = lcOp{name: "migration", run: func(s *lcScene, p *sim.Proc) { s.w.d.MigrateVFFile(p, s.idx) }}
	lcFLR       = lcOp{name: "flr", run: func(s *lcScene, p *sim.Proc) { s.w.d.ResetVF(p, s.idx) }}

	lcInFlight = []lcOp{
		{name: "snapshot", run: func(s *lcScene, p *sim.Proc) { s.w.d.SnapshotVF(p, s.idx, "/lc.snap", lcUID) }},
		lcMigration,
		{name: "lazy-miss", run: func(s *lcScene, p *sim.Proc) { s.write(p, 200, 0xA1) }},
		{name: "cow-miss", prep: lcSnapshotBase, run: func(s *lcScene, p *sim.Proc) { s.write(p, 20, 0xC1) }},
		{name: "unprotect", prep: func(s *lcScene, p *sim.Proc) error {
			// Protected extents and nothing shared: what Unprotect undoes.
			if err := lcSnapshotBase(s, p); err != nil {
				return err
			}
			return s.w.d.DeleteSnapshot(p, "/lc.base", lcUID)
		}, run: func(s *lcScene, p *sim.Proc) { s.w.d.Unprotect(p, lcImage) }},
		lcFLR,
	}
	lcArrivals = []lcOp{
		{name: "teardown", run: func(s *lcScene, p *sim.Proc) { s.b.Teardown(p); s.a.Teardown(p) }},
		lcFLR,
		{name: "snapshot", run: func(s *lcScene, p *sim.Proc) { s.w.d.SnapshotVF(p, s.idx, "/lc.arrive", lcUID) }},
		lcMigration,
	}
)

// lcRun plays one cell: the scene, then from t0 the in-flight transition and
// the hole write, and arr (if any) at virtual time at. It fails t unless the
// run leaves no panic, an engine that drains, a clean host filesystem, every
// tree's sharer list — its reference count — equal to the VFs that export it,
// and every acknowledged guest write in the host file. It returns the distinct
// instants events ran at while the in-flight transition was running.
func lcRun(t *testing.T, in lcOp, arr *lcOp, at sim.Time) (instants []sim.Time) {
	t.Helper()
	w := newWorld(t, 8192, nil)
	s := &lcScene{w: w, acked: make(map[int64]byte)}
	started, done := false, false
	w.eng.Go("main", func(p *sim.Proc) {
		if err := s.setup(p, in); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		started = true
		w.eng.Go("in-flight", func(q *sim.Proc) {
			in.run(s, q)
			done = true
		})
		w.eng.Go("hole-writer", func(q *sim.Proc) {
			q.Sleep(2 * sim.Microsecond)
			s.write(q, 150, 0x5A)
		})
		if arr != nil {
			w.eng.Go("arrival", func(q *sim.Proc) {
				q.Sleep(at - q.Now())
				arr.run(s, q)
			})
		}
	})
	if !lcDrain(t, w.eng, func() {
		if started && !done && (len(instants) == 0 || instants[len(instants)-1] != w.eng.Now()) {
			instants = append(instants, w.eng.Now())
		}
	}) {
		return nil
	}
	w.eng.Go("check", func(p *sim.Proc) {
		if err := w.d.HostFS.Check(p); err != nil {
			t.Errorf("host fsck: %v", err)
		}
		f, err := w.d.HostFS.Open(p, lcImage, 0, extfs.PermRead)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 1024)
		for blk, fill := range s.acked {
			if _, err := f.ReadAt(p, got, blk*1024); err != nil && err != io.EOF {
				t.Error(err)
			} else if !bytes.Equal(got, bytes.Repeat([]byte{fill}, 1024)) {
				t.Errorf("acknowledged write of %#x to block %d is not in the host file", fill, blk)
			}
		}
	})
	if lcDrain(t, w.eng, func() {}) {
		w.eng.Shutdown()
	}
	lcCheckSharers(t, w.d)
	return instants
}

// setup boots the world, makes the half-allocated image, exports it through
// A and B, writes blocks 0-7 through A, and runs in's prep.
func (s *lcScene) setup(p *sim.Proc, in lcOp) error {
	w := s.w
	if err := w.h.Boot(p, true, extfs.Params{InodeCount: 128, JournalBlocks: 64, Mode: extfs.JournalMetadata}); err != nil {
		return err
	}
	if err := w.d.MkImage(p, lcImage, lcUID, lcBlocks, true); err != nil {
		return err
	}
	if err := w.d.HostFS.AllocateRange(p, lcImage, 0, lcBlocks/2); err != nil {
		return err
	}
	var err error
	if s.a, err = w.h.NewVM(p, "a", VMConfig{Backend: BackendDirect, DiskPath: lcImage, UID: lcUID}); err != nil {
		return err
	}
	if s.b, err = w.h.NewVM(p, "b", VMConfig{Backend: BackendDirect, DiskPath: lcImage, UID: lcUID}); err != nil {
		return err
	}
	s.idx = s.a.Legs[0].VFIdx
	for blk := int64(0); blk < 8; blk++ {
		s.write(p, blk, byte(0x10+blk))
	}
	if in.prep != nil {
		return in.prep(s, p)
	}
	return nil
}

// lcDrain steps eng until no event is left, calling each after every step. It
// reports false — having failed t — on a panic out of the simulation or on an
// engine still busy at lcLimit.
func lcDrain(t *testing.T, eng *sim.Engine, each func()) (ok bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("panic at %v: %v", eng.Now(), r)
			ok = false
		}
	}()
	for eng.Step() {
		if eng.Now() > lcLimit {
			t.Errorf("engine still busy at %v", eng.Now())
			return false
		}
		each()
	}
	return true
}

// lcCheckSharers holds every tree's sharer list to the VF records: a tree
// lists, in index order, exactly the VFs whose records export it, and the
// SR-IOV enable count is the number of exporting records.
func lcCheckSharers(t *testing.T, d *Device) {
	t.Helper()
	n := 0
	for idx, st := range d.vfs {
		if st == nil || st.shared == nil {
			continue
		}
		n++
		if d.trees[st.shared.key] != st.shared || !slices.Contains(st.shared.vfs, idx) {
			t.Errorf("VF %d exports a tree that does not list it", idx)
		}
	}
	for key, sh := range d.trees {
		if len(sh.vfs) == 0 || !slices.IsSorted(sh.vfs) {
			t.Errorf("tree %q lists sharers %v", key, sh.vfs)
		}
		for _, idx := range sh.vfs {
			if st := d.vfAt(idx); st == nil || st.shared != sh {
				t.Errorf("tree %q lists VF %d, which does not export it", key, idx)
			}
		}
	}
	if got := d.Ctl.SRIOV().NumEnabled; got != n {
		t.Errorf("%d VFs export something, %d enabled", n, got)
	}
}

// Unprotect's re-validation: a snapshot taken while it waits for the VF's lock
// shares the image's blocks again, so it must find nothing to do rather than
// run BreakRange, which would copy every one of them.
func TestUnprotectRechecksSharingUnderTheLock(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/u.img", 100, 64)
		vm, err := w.h.NewVM(p, "u", VMConfig{Backend: BackendDirect, DiskPath: "/u.img", UID: 100})
		if err != nil {
			t.Fatal(err)
		}
		idx := vm.Legs[0].VFIdx
		// Protected extents and nothing shared: what Unprotect undoes.
		if err := w.d.SnapshotVF(p, idx, "/u.old", 100); err != nil {
			t.Fatal(err)
		}
		if err := w.d.DeleteSnapshot(p, "/u.old", 100); err != nil {
			t.Fatal(err)
		}
		w.eng.Go("snapshot", func(q *sim.Proc) {
			if err := w.d.SnapshotVF(q, idx, "/u.snap", 100); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(sim.Microsecond) // the snapshot holds the VF's lock
		if w.d.HostFS.SharedBlocks() != 0 {
			t.Fatal("the snapshot shared blocks before Unprotect was called")
		}
		if err := w.d.Unprotect(p, "/u.img"); err != nil {
			t.Fatal(err)
		}
		if got := w.d.HostFS.SharedBlocks(); got != 64 {
			t.Fatalf("%d of the image's 64 blocks shared with the snapshot: Unprotect copied the rest", got)
		}
		if err := w.d.HostFS.Check(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestVFLifecycleMatrix(t *testing.T) {
	for _, in := range lcInFlight {
		t.Run(in.name, func(t *testing.T) {
			instants := lcRun(t, in, nil, 0)
			if len(instants) == 0 {
				t.Fatal("the in-flight transition never ran")
			}
			var points []sim.Time
			for i := 0; i < lcPoints; i++ {
				points = append(points, instants[i*(len(instants)-1)/(lcPoints-1)])
			}
			points = slices.Compact(points)
			for _, arr := range lcArrivals {
				t.Run(arr.name, func(t *testing.T) {
					for _, at := range points {
						if !t.Run(fmt.Sprint(at), func(t *testing.T) { lcRun(t, in, &arr, at) }) {
							return
						}
					}
				})
			}
		})
	}
}
