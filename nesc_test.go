package nesc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	sim := New(DefaultConfig())
	err := sim.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/tenant.img", 100, 8<<20, false); err != nil {
			return err
		}
		vm, err := ctx.StartVM("tenant", BackendNeSC, "/tenant.img", 100)
		if err != nil {
			return err
		}
		if vm.DiskSize() != 8<<20 {
			t.Errorf("disk size = %d", vm.DiskSize())
		}
		if vm.VFIndex() < 0 {
			t.Error("NeSC VM has no VF")
		}
		msg := []byte("self-virtualizing nested storage controller")
		if err := vm.WriteAt(ctx, msg, 4096); err != nil {
			return err
		}
		got := make([]byte, len(msg))
		if err := vm.ReadAt(ctx, got, 4096); err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			t.Error("VM raw round trip mismatch")
		}
		// The same bytes are visible in the backing host file.
		host := make([]byte, len(msg))
		if _, err := ctx.ReadHostFile("/tenant.img", host, 4096); err != nil {
			return err
		}
		if !bytes.Equal(host, msg) {
			t.Error("host view differs from guest view")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.VirtualTime == 0 {
		t.Error("no virtual time elapsed")
	}
	if st.MediumWriteBytes == 0 {
		t.Error("no medium traffic recorded")
	}
}

func TestAllBackendsThroughPublicAPI(t *testing.T) {
	for _, backend := range []Backend{BackendNeSC, BackendVirtio, BackendEmulation} {
		t.Run(string(backend), func(t *testing.T) {
			sim := New(Config{MediumMB: 32})
			err := sim.Run(func(ctx *Ctx) error {
				if err := ctx.CreateImage("/d.img", 1, 4<<20, false); err != nil {
					return err
				}
				vm, err := ctx.StartVM("vm", backend, "/d.img", 1)
				if err != nil {
					return err
				}
				if vm.Backend() != backend {
					t.Errorf("backend = %q", vm.Backend())
				}
				data := bytes.Repeat([]byte{0xA5}, 10000)
				if err := vm.WriteAt(ctx, data, 12345); err != nil {
					return err
				}
				got := make([]byte, len(data))
				if err := vm.ReadAt(ctx, got, 12345); err != nil {
					return err
				}
				if !bytes.Equal(got, data) {
					t.Error("round trip mismatch")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPermissionEnforcement(t *testing.T) {
	sim := New(Config{MediumMB: 32})
	err := sim.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/alice.img", 100, 2<<20, false); err != nil {
			return err
		}
		if _, err := ctx.StartVM("mallory", BackendNeSC, "/alice.img", 200); err == nil {
			t.Error("foreign tenant obtained a VF for alice's image")
		}
		if _, err := ctx.StartVM("alice", BackendNeSC, "/alice.img", 100); err != nil {
			t.Errorf("owner denied: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGuestFilesystemLifecycle(t *testing.T) {
	simu := New(Config{MediumMB: 64})
	err := simu.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/g.img", 5, 16<<20, false); err != nil {
			return err
		}
		vm, err := ctx.StartVM("vm", BackendNeSC, "/g.img", 5)
		if err != nil {
			return err
		}
		gfs, err := vm.FormatFS(ctx)
		if err != nil {
			return err
		}
		if err := gfs.Mkdir(ctx, "/mail"); err != nil {
			return err
		}
		f, err := gfs.Create(ctx, "/mail/inbox")
		if err != nil {
			return err
		}
		payload := bytes.Repeat([]byte("msg "), 4096)
		if _, err := f.WriteAt(ctx, payload, 0); err != nil {
			return err
		}
		if err := f.Sync(ctx); err != nil {
			return err
		}
		if err := gfs.Check(ctx); err != nil {
			return err
		}
		vm.Stop(ctx)

		// Remount from a second VM.
		vm2, err := ctx.StartVM("vm2", BackendNeSC, "/g.img", 5)
		if err != nil {
			return err
		}
		gfs2, err := vm2.MountFS(ctx)
		if err != nil {
			return err
		}
		names, err := gfs2.List(ctx, "/mail")
		if err != nil {
			return err
		}
		if len(names) != 1 || names[0] != "inbox" {
			t.Errorf("guest dir listing = %v", names)
		}
		f2, err := gfs2.Open(ctx, "/mail/inbox")
		if err != nil {
			return err
		}
		got := make([]byte, len(payload))
		if _, err := f2.ReadAt(ctx, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Error("guest file lost across VM restart")
		}
		if err := gfs2.Remove(ctx, "/mail/inbox"); err != nil {
			return err
		}
		return gfs2.Check(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSparseImageLazyAllocation(t *testing.T) {
	sim := New(Config{MediumMB: 32})
	err := sim.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/sparse.img", 9, 4<<20, true); err != nil {
			return err
		}
		st, err := ctx.StatHost("/sparse.img")
		if err != nil {
			return err
		}
		if st.Extents != 0 {
			t.Errorf("sparse image has %d extents", st.Extents)
		}
		vm, err := ctx.StartVM("vm", BackendNeSC, "/sparse.img", 9)
		if err != nil {
			return err
		}
		if err := vm.WriteAt(ctx, []byte("first touch"), 1<<20); err != nil {
			return err
		}
		got := make([]byte, 11)
		if err := vm.ReadAt(ctx, got, 1<<20); err != nil {
			return err
		}
		if string(got) != "first touch" {
			t.Errorf("read back %q", got)
		}
		return ctx.CheckHostFS()
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Stats().MissInterrupts == 0 {
		t.Error("no lazy-allocation miss interrupts observed")
	}
}

func TestConcurrentTenantsViaTasks(t *testing.T) {
	simu := New(Config{MediumMB: 64})
	err := simu.Run(func(ctx *Ctx) error {
		var tasks []*Task
		for i := 0; i < 3; i++ {
			uid := uint32(100 + i)
			path := "/t" + string(rune('0'+i)) + ".img"
			if err := ctx.CreateImage(path, uid, 4<<20, false); err != nil {
				return err
			}
			vm, err := ctx.StartVM(path, BackendNeSC, path, uid)
			if err != nil {
				return err
			}
			pattern := byte(i + 1)
			tasks = append(tasks, ctx.Go("tenant", func(tc *Ctx) error {
				data := bytes.Repeat([]byte{pattern}, 64<<10)
				if err := vm.WriteAt(tc, data, 0); err != nil {
					return err
				}
				got := make([]byte, len(data))
				if err := vm.ReadAt(tc, got, 0); err != nil {
					return err
				}
				if !bytes.Equal(got, data) {
					t.Errorf("tenant %d data corrupted", pattern)
				}
				return nil
			}))
		}
		for _, task := range tasks {
			if err := task.Wait(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if simu.Stats().BTLBHitRate == 0 {
		t.Error("BTLB never hit under sequential tenant I/O")
	}
}

// Two requests in flight on one VM must not share a bounce buffer: with the
// guest kernel's old single scratch buffer each client read back the other's
// bytes. Sizes differ per client so the free list also has to cope with a
// checked-out buffer being too small for the next caller.
func TestConcurrentClientsOnOneVM(t *testing.T) {
	simu := New(Config{MediumMB: 64, QueuesPerVF: 2})
	err := simu.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/shared.img", 7, 8<<20, false); err != nil {
			return err
		}
		vm, err := ctx.StartVM("vm", BackendNeSC, "/shared.img", 7)
		if err != nil {
			return err
		}
		var tasks []*Task
		for i := 0; i < 2; i++ {
			base, size := int64(i)*(4<<20), 3000+5000*i // unaligned: partial edge blocks too
			tasks = append(tasks, ctx.Go("client", func(tc *Ctx) error {
				data, got := make([]byte, size), make([]byte, size)
				for round := 0; round < 20; round++ {
					off := base + int64(round)*int64(size) + 13
					for j := range data {
						data[j] = byte(i<<7 | (round+j)&0x7f)
					}
					if err := vm.WriteAt(tc, data, off); err != nil {
						return err
					}
					if err := vm.ReadAt(tc, got, off); err != nil {
						return err
					}
					if !bytes.Equal(got, data) {
						return fmt.Errorf("client %d round %d: read back foreign or stale bytes", i, round)
					}
				}
				return nil
			}))
		}
		for _, task := range tasks {
			if err := task.Wait(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSharedImageAndMigration(t *testing.T) {
	simu := New(Config{MediumMB: 64})
	err := simu.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/shared.img", 0, 4<<20, false); err != nil {
			return err
		}
		vm1, err := ctx.StartVM("a", BackendNeSC, "/shared.img", 0)
		if err != nil {
			return err
		}
		vm2, err := ctx.StartVM("b", BackendNeSC, "/shared.img", 0)
		if err != nil {
			return err
		}
		// Shared file: one VM's write is the other's read.
		msg := []byte("shared extent tree")
		if err := vm1.WriteAt(ctx, msg, 0); err != nil {
			return err
		}
		got := make([]byte, len(msg))
		if err := vm2.ReadAt(ctx, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			t.Error("shared image not visible across VMs")
		}
		// Live migration of the backing blocks is transparent.
		if err := ctx.MigrateImage(vm1); err != nil {
			return err
		}
		if err := vm2.ReadAt(ctx, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			t.Error("data lost across block migration")
		}
		// QoS weight programming is accepted.
		vm1.SetIOWeight(ctx, 8)
		return ctx.CheckHostFS()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 13 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	want := map[string]bool{"fig2": false, "fig9": false, "fig10": false, "fig11": false, "fig12": false, "table1": false, "table2": false}
	for _, e := range exps {
		if _, ok := want[e.Name]; ok {
			want[e.Name] = true
		}
		if e.Title == "" {
			t.Errorf("experiment %s has no title", e.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("paper artifact %s not registered", name)
		}
	}
	if _, err := RunExperiment("definitely-not-an-experiment"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExperimentTable2(t *testing.T) {
	out, err := RunExperiment("table2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Postmark", "OLTP", "SysBench", "dd"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string // in the panic
	}{
		{Config{HostJournal: "quantum"}, "unknown journal mode"},
		{Config{NumVFs: 1025}, "limit 1024"}, // VF 1024's misses would have no pending bit
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("New(%+v) panicked with %v, want %q", tc.cfg, r, tc.want)
				}
			}()
			New(tc.cfg)
		}()
	}
}

func TestSnapshotClonePublicAPI(t *testing.T) {
	sim := New(DefaultConfig())
	err := sim.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/base.img", 100, 64<<10, false); err != nil {
			return err
		}
		vm, err := ctx.StartVM("base", BackendNeSC, "/base.img", 100)
		if err != nil {
			return err
		}
		seed := bytes.Repeat([]byte("golden image "), 512)
		if err := vm.WriteAt(ctx, seed, 0); err != nil {
			return err
		}

		// Snapshot the running VM, then fork a clone VM from it.
		if err := vm.Snapshot(ctx, "/base.snap", 100); err != nil {
			return err
		}
		if ctx.SharedBlocks() == 0 {
			t.Error("snapshot shares no blocks")
		}
		clone, err := ctx.CloneVM(vm, "fork", "/fork.img", 100)
		if err != nil {
			return err
		}

		// The clone reads the parent's snapshot-time bytes.
		got := make([]byte, len(seed))
		if err := clone.ReadAt(ctx, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, seed) {
			t.Error("clone does not read the parent's image")
		}

		// Divergent writes stay private to each side.
		if err := vm.WriteAt(ctx, []byte("parent-only"), 0); err != nil {
			return err
		}
		if err := clone.WriteAt(ctx, []byte("clone-only"), 2048); err != nil {
			return err
		}
		if err := clone.ReadAt(ctx, got[:len("parent-only")], 0); err != nil {
			return err
		}
		if !bytes.Equal(got[:len("parent-only")], seed[:len("parent-only")]) {
			t.Error("parent write leaked into clone")
		}
		pget := make([]byte, len("clone-only"))
		if err := vm.ReadAt(ctx, pget, 2048); err != nil {
			return err
		}
		if !bytes.Equal(pget, seed[2048:2048+int64(len(pget))]) {
			t.Error("clone write leaked into parent")
		}

		// The pure snapshot file still holds the original image.
		host := make([]byte, len(seed))
		if _, err := ctx.ReadHostFile("/base.snap", host, 0); err != nil {
			return err
		}
		if !bytes.Equal(host, seed) {
			t.Error("snapshot drifted from snapshot-time bytes")
		}

		// Snapshot lifecycle: delete refuses on the exported clone image,
		// succeeds on the plain snapshot file.
		if err := ctx.DeleteSnapshot("/fork.img", 100); err == nil {
			t.Error("deleted an image still exported through a VF")
		}
		if err := ctx.DeleteSnapshot("/base.snap", 100); err != nil {
			return err
		}
		return ctx.CheckHostFS()
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.Snapshots < 2 || st.Clones != 1 {
		t.Errorf("Snapshots = %d, Clones = %d", st.Snapshots, st.Clones)
	}
	if st.CowFaults == 0 || st.CowBreaks == 0 || st.BTLBInvalidations == 0 {
		t.Errorf("CoW path unused: faults %d breaks %d inval %d",
			st.CowFaults, st.CowBreaks, st.BTLBInvalidations)
	}
}

// TestResetRacesSnapshotChurn hammers one VF with concurrent function-level
// resets, snapshot create/delete cycles, and foreground writes. The three
// must serialize cleanly: every snapshot call succeeds, no refcounts tear
// (SharedBlocks drains to zero), the host filesystem stays fsck-clean, and
// the last acknowledged write survives.
func TestResetRacesSnapshotChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DriverTimeout = 2 * time.Millisecond
	cfg.DriverRetryMax = 4
	sim := New(cfg)
	const rounds = 12
	err := sim.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/churn.img", 100, 256<<10, false); err != nil {
			return err
		}
		vm, err := ctx.StartVM("churn", BackendNeSC, "/churn.img", 100)
		if err != nil {
			return err
		}
		tn := &tenant{disk: newDisk(1, 256), vms: []*VM{vm}}

		resetter := ctx.Go("resetter", func(c *Ctx) error {
			for i := 0; i < rounds; i++ {
				if err := vm.Reset(c); err != nil {
					return fmt.Errorf("reset %d: %w", i, err)
				}
				c.Sleep(30 * time.Microsecond)
			}
			return nil
		})
		snapper := ctx.Go("snapper", func(c *Ctx) error {
			for i := 0; i < rounds; i++ {
				if err := vm.Snapshot(c, "/churn.snap", 100); err != nil {
					return fmt.Errorf("snapshot %d: %w", i, err)
				}
				if err := c.DeleteSnapshot("/churn.snap", 100); err != nil {
					return fmt.Errorf("delete %d: %w", i, err)
				}
				c.Sleep(10 * time.Microsecond)
			}
			return nil
		})
		writer := ctx.Go("writer", func(c *Ctx) error {
			for i := int64(0); i < 2*rounds; i++ {
				// In-flight writes may be aborted by a racing reset; the
				// stripes are idempotent, so retry until acknowledged.
				if err := tn.write(c, vm, i%4*8, 8); err != nil {
					return fmt.Errorf("write %d: %w", i, err)
				}
			}
			return nil
		})
		for _, tk := range []*Task{resetter, snapper, writer} {
			if err := tk.Wait(ctx); err != nil {
				return err
			}
		}

		// The churn must leave no shared blocks and a clean filesystem.
		if sb := ctx.SharedBlocks(); sb != 0 {
			return fmt.Errorf("churn left %d shared blocks", sb)
		}
		if err := ctx.CheckHostFS(); err != nil {
			return fmt.Errorf("fsck after churn: %w", err)
		}
		// The last acknowledged stripes survive reset and snapshot churn.
		return tn.checkAll(ctx, vm)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.VFResets != rounds {
		t.Errorf("VFResets = %d, want %d", st.VFResets, rounds)
	}
	if st.Snapshots != rounds {
		t.Errorf("Snapshots = %d, want %d", st.Snapshots, rounds)
	}
	if st.SharedBlocks != 0 {
		t.Errorf("SharedBlocks = %d after churn, want 0", st.SharedBlocks)
	}
}

// TestStopRacesVFTransitions stops a VM while a transition on its VF is
// parked: a snapshot, an image migration, or the lazy-allocation miss service
// behind a write into a sparse image, each swept across 200 µs of teardown
// delays. A teardown waits for the transition instead of pulling the export
// out from under it (before PR 25 all three panicked the simulation) and leaves
// a clean host filesystem holding every write the guest saw acknowledged.
func TestStopRacesVFTransitions(t *testing.T) {
	for _, op := range []stopRace{
		{"snapshot", -1, func(c *Ctx, vm *VM, _ []byte) error { return vm.Snapshot(c, "/race.snap", 100) }},
		{"migrate-image", -1, func(c *Ctx, vm *VM, _ []byte) error { return c.MigrateImage(vm) }},
		{"sparse-write", 64 << 10, func(c *Ctx, vm *VM, data []byte) error { return vm.WriteAt(c, data, 64<<10) }},
	} {
		t.Run(op.name, func(t *testing.T) {
			for delay := time.Duration(0); delay <= 200*time.Microsecond; delay += 10 * time.Microsecond {
				if err := op.stopDuring(delay); err != nil {
					t.Fatalf("stop %v into the %s: %v", delay, op.name, err)
				}
			}
		})
	}
}

// stopRace is a transition a VM stop races: run, which writes data at off
// (-1: it writes nothing).
type stopRace struct {
	name string
	off  int64
	run  func(c *Ctx, vm *VM, data []byte) error
}

// stopDuring runs op on a VM over a sparse image whose block 0 holds data,
// stops the VM delay later, and checks what the teardown left.
func (op stopRace) stopDuring(delay time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	data := bytes.Repeat([]byte{0x5A}, 1024)
	return New(DefaultConfig()).Run(func(ctx *Ctx) error {
		if err := ctx.CreateImage("/race.img", 100, 256<<10, true); err != nil {
			return err
		}
		vm, err := ctx.StartVM("race", BackendNeSC, "/race.img", 100)
		if err != nil {
			return err
		}
		if err := vm.WriteAt(ctx, data, 0); err != nil {
			return err
		}
		acked := []int64{0}
		ctx.Go(op.name, func(c *Ctx) error {
			if op.run(c, vm, data) == nil && op.off >= 0 {
				acked = append(acked, op.off)
			}
			return nil
		})
		ctx.Sleep(delay)
		vm.Stop(ctx) // the op is not joined: a write the stop cuts off never completes
		if err := ctx.CheckHostFS(); err != nil {
			return err
		}
		got := make([]byte, len(data))
		for _, off := range acked {
			if _, err := ctx.ReadHostFile("/race.img", got, off); err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("acknowledged write at %d is not in the host file", off)
			}
		}
		return nil
	})
}

// A VM stopped with writes in flight must not steer the next tenant on its VF
// index: a walk that returns after the disable may not re-cache the old
// tenant's extent, and B's bytes land in B's file and nowhere else.
func TestStoppedVMsWritesStayOutOfTheNextTenant(t *testing.T) {
	for _, iommu := range []bool{false, true} {
		for _, delay := range []time.Duration{20 * time.Microsecond, 40 * time.Microsecond, 80 * time.Microsecond} {
			t.Run(fmt.Sprintf("iommu=%v/stop=%v", iommu, delay), func(t *testing.T) {
				inA, inB, err := stopThenReexport(iommu, delay)
				if err != nil {
					t.Fatal(err)
				}
				if inA != 0 || inB != 1<<20 {
					t.Errorf("B wrote 1 MiB of 0xBB: %d bytes landed in A's file, %d in B's", inA, inB)
				}
			})
		}
	}
}

// stopThenReexport runs 256 concurrent 4 KB writers on tenant A, stops A
// delay later, boots tenant B on the freed VF index and has it write 1 MiB of
// 0xBB; it reports how many 0xBB bytes each host file holds.
func stopThenReexport(iommu bool, delay time.Duration) (inA, inB int, err error) {
	cfg := DefaultConfig()
	cfg.UseIOMMU = iommu
	err = New(cfg).Run(func(ctx *Ctx) error {
		for _, path := range []string{"/a.img", "/b.img"} {
			if err := ctx.CreateImage(path, 100, 1<<20, false); err != nil {
				return err
			}
		}
		a, err := ctx.StartVM("a", BackendNeSC, "/a.img", 100)
		if err != nil {
			return err
		}
		vf := a.VFIndex()
		block := bytes.Repeat([]byte{0xAA}, 4096)
		for i := int64(0); i < 256; i++ {
			ctx.Go("a-writer", func(c *Ctx) error { return a.WriteAt(c, block, i*4096) })
		}
		ctx.Sleep(delay)
		a.Stop(ctx) // the writers are not joined: the stop cuts them off
		b, err := ctx.StartVM("b", BackendNeSC, "/b.img", 100)
		if err != nil {
			return err
		}
		if b.VFIndex() != vf {
			return fmt.Errorf("B got VF %d, not A's %d", b.VFIndex(), vf)
		}
		if err := b.WriteAt(ctx, bytes.Repeat([]byte{0xBB}, 1<<20), 0); err != nil {
			return err
		}
		fileA, fileB := make([]byte, 1<<20), make([]byte, 1<<20)
		if _, err := ctx.ReadHostFile("/a.img", fileA, 0); err != nil {
			return err
		}
		if _, err := ctx.ReadHostFile("/b.img", fileB, 0); err != nil {
			return err
		}
		inA, inB = bytes.Count(fileA, []byte{0xBB}), bytes.Count(fileB, []byte{0xBB})
		return nil
	})
	return inA, inB, err
}
