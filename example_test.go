package nesc_test

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"nesc"
	"nesc/internal/bench"
	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// The canonical flow (paper Fig. 3): export a host file as a virtual function,
// do guest I/O through the device, and read the same bytes on the host.
func Example() {
	sim := nesc.New(nesc.DefaultConfig())
	err := sim.Run(func(ctx *nesc.Ctx) error {
		if err := ctx.CreateImage("/tenant.img", 100, 16<<20, false); err != nil {
			return err
		}
		vm, err := ctx.StartVM("tenant", nesc.BackendNeSC, "/tenant.img", 100)
		if err != nil {
			return err
		}
		fmt.Printf("VM %q on VF %d, %d MB virtual disk\n", vm.Name(), vm.VFIndex(), vm.DiskSize()>>20)
		if err := vm.WriteAt(ctx, []byte("hello"), 4096); err != nil {
			return err
		}
		got, host := make([]byte, 5), make([]byte, 5)
		if err := vm.ReadAt(ctx, got, 4096); err != nil {
			return err
		}
		if _, err := ctx.ReadHostFile("/tenant.img", host, 4096); err != nil {
			return err
		}
		fmt.Printf("guest read %q, the host file holds %q\n", got, host)
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	st := sim.Stats()
	fmt.Printf("BTLB hit rate %.2f, %d tree-node fetch\n", st.BTLBHitRate, st.WalkNodeReads)
	// Output:
	// VM "tenant" on VF 0, 16 MB virtual disk
	// guest read "hello", the host file holds "hello"
	// BTLB hit rate 0.50, 1 tree-node fetch
}

// Permission enforcement: the hypervisor refuses to export a file to a
// tenant without filesystem access — the paper's protection model.
func ExampleCtx_StartVM_permissionDenied() {
	sim := nesc.New(nesc.Config{MediumMB: 32})
	_ = sim.Run(func(ctx *nesc.Ctx) error {
		if err := ctx.CreateImage("/alice.img", 100, 1<<20, false); err != nil {
			return err
		}
		if _, err := ctx.StartVM("mallory", nesc.BackendNeSC, "/alice.img", 200); err != nil {
			fmt.Println("denied")
		}
		return nil
	})
	// Output: denied
}

// Comparing backends: the same workload runs against any of the paper's
// three storage virtualization methods.
func ExampleBackend() {
	sim := nesc.New(nesc.Config{MediumMB: 32})
	_ = sim.Run(func(ctx *nesc.Ctx) error {
		for _, b := range []nesc.Backend{nesc.BackendNeSC, nesc.BackendVirtio, nesc.BackendEmulation} {
			path := "/" + string(b) + ".img"
			if err := ctx.CreateImage(path, 1, 1<<20, false); err != nil {
				return err
			}
			vm, err := ctx.StartVM(string(b), b, path, 1)
			if err != nil {
				return err
			}
			if err := vm.WriteAt(ctx, make([]byte, 4096), 0); err != nil {
				return err
			}
			fmt.Println(vm.Backend()) // per-backend latencies are compared in EXPERIMENTS.md
		}
		return nil
	})
	// Output:
	// nesc
	// virtio
	// emulation
}

// Nested filesystem (paper §IV-D): a guest formats its own filesystem inside
// the virtual disk, which the host sees as one file and a second VM remounts.
func ExampleVM_FormatFS() {
	sim := nesc.New(nesc.Config{MediumMB: 128, HostJournal: "metadata"})
	err := sim.Run(func(ctx *nesc.Ctx) error {
		if err := ctx.CreateImage("/nested.img", 42, 32<<20, false); err != nil {
			return err
		}
		vm, err := ctx.StartVM("nested", nesc.BackendNeSC, "/nested.img", 42)
		if err != nil {
			return err
		}
		gfs, err := vm.FormatFS(ctx)
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			f, err := gfs.Create(ctx, fmt.Sprintf("/msg%02d", i))
			if err != nil {
				return err
			}
			if _, err := f.WriteAt(ctx, bytes.Repeat([]byte{byte(i)}, 3000+i*512), 0); err != nil {
				return err
			}
		}
		names, err := gfs.List(ctx, "/")
		if err != nil {
			return err
		}
		hostNames, err := ctx.HostList("/")
		if err != nil {
			return err
		}
		fmt.Printf("guest / holds %d files, host / holds %v\n", len(names), hostNames)
		if err := errors.Join(gfs.Check(ctx), ctx.CheckHostFS()); err != nil {
			return err
		}
		vm.Stop(ctx)
		vm2, err := ctx.StartVM("nested-2", nesc.BackendNeSC, "/nested.img", 42)
		if err != nil {
			return err
		}
		gfs2, err := vm2.MountFS(ctx)
		if err != nil {
			return err
		}
		f, err := gfs2.Open(ctx, "/msg03")
		if err != nil {
			return err
		}
		probe := make([]byte, 1)
		if _, err := f.ReadAt(ctx, probe, 0); err != nil {
			return err
		}
		fmt.Printf("a second VM remounted the image: /msg03 starts with %d\n", probe[0])
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// guest / holds 8 files, host / holds [nested.img]
	// a second VM remounted the image: /msg03 starts with 3
}

// Multi-tenancy: four tenants share one device, each a Ctx.Go process. None
// can export another's file, and each reads back exactly its own pattern.
func ExampleCtx_Go() {
	sim := nesc.New(nesc.Config{MediumMB: 128})
	err := sim.Run(func(ctx *nesc.Ctx) error {
		var tasks []*nesc.Task
		for i := 0; i < 4; i++ {
			path := fmt.Sprintf("/tenant%d.img", i)
			if err := ctx.CreateImage(path, uint32(100+i), 8<<20, false); err != nil {
				return err
			}
			vm, err := ctx.StartVM(path, nesc.BackendNeSC, path, uint32(100+i))
			if err != nil {
				return err
			}
			tasks = append(tasks, ctx.Go(path, func(c *nesc.Ctx) error {
				pattern, got := bytes.Repeat([]byte{byte(0x10 + i)}, 256<<10), make([]byte, 256<<10)
				for off := int64(0); off < 4<<20; off += int64(len(pattern)) {
					if err := vm.WriteAt(c, pattern, off); err != nil {
						return err
					}
					if err := vm.ReadAt(c, got, off); err != nil || !bytes.Equal(got, pattern) {
						return fmt.Errorf("tenant %d at %d: %v", i, off, err)
					}
				}
				return nil
			}))
		}
		if _, err := ctx.StartVM("intruder", nesc.BackendNeSC, "/tenant1.img", 100); err != nil {
			fmt.Println("foreign export:", err)
		}
		for _, task := range tasks {
			if err := task.Wait(ctx); err != nil {
				return err
			}
		}
		fmt.Println("every tenant read back its own pattern")
		return ctx.CheckHostFS()
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// foreign export: hypervisor: VF creation denied: extfs: permission denied
	// every tenant read back its own pattern
}

// QoS (paper §IV-D): per-VF weights divide the DMA engine between two tenants
// writing flat out; deficit round robin is work-conserving, so 4:1 gives 2:1.
func ExampleVM_SetIOWeight() {
	const window = 10 * time.Millisecond
	for _, weights := range [][2]int{{1, 1}, {4, 1}} {
		var written, base, end [2]int64
		err := nesc.New(nesc.Config{MediumMB: 128}).Run(func(ctx *nesc.Ctx) error {
			stop := false
			var tasks []*nesc.Task
			for i, w := range weights {
				path := fmt.Sprintf("/t%d.img", i)
				if err := ctx.CreateImage(path, uint32(i+1), 16<<20, false); err != nil {
					return err
				}
				vm, err := ctx.StartVM(path, nesc.BackendNeSC, path, uint32(i+1))
				if err != nil {
					return err
				}
				vm.SetIOWeight(ctx, w)
				tasks = append(tasks, ctx.Go(path, func(c *nesc.Ctx) error {
					chunk := make([]byte, 64<<10)
					for off := int64(0); !stop; off += int64(len(chunk)) {
						if err := vm.WriteAt(c, chunk, off%(12<<20)); err != nil {
							return err
						}
						written[i] += int64(len(chunk))
					}
					return nil
				}))
			}
			ctx.Sleep(2 * time.Millisecond) // warm-up
			base = written
			ctx.Sleep(window)
			end, stop = written, true
			for _, task := range tasks {
				if err := task.Wait(ctx); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			fmt.Println("error:", err)
		}
		fmt.Printf("weights %d:%d -> %.0f and %.0f MB/s\n", weights[0], weights[1],
			float64(end[0]-base[0])/1e6/window.Seconds(), float64(end[1]-base[1])/1e6/window.Seconds())
	}
	// Output:
	// weights 1:1 -> 701 and 701 MB/s
	// weights 4:1 -> 872 and 433 MB/s
}

// Accelerator direct access (paper §IV-D): a peer PCIe device drives a VF's
// rings itself and streams the exported file with no CPU on the path. It is
// not a guest OS, so it is built from the internal packages.
func Example_accelerator() {
	pl := bench.NewPlatform(bench.DefaultConfig())
	d := pl.Hyp.Device(0)
	err := pl.Run(func(p *sim.Proc) error {
		if _, err := d.MkImage(p, "/dataset.bin", 7, 16*1024, false); err != nil {
			return err
		}
		f, err := d.HostFS.Open(p, "/dataset.bin", 7, 6)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(p, bytes.Repeat([]byte("weights "), 512<<10/8), 0); err != nil {
			return err
		}
		vf, err := d.CreateVF(p, "/dataset.bin", 7)
		if err != nil {
			return err
		}
		mq, err := guest.NewMultiQueue(p, pl.Eng, pl.Mem, pl.Fab, d.VFPageBus(vf),
			guest.RingConfig{Entries: 64, SubmitTime: 300 * sim.Nanosecond})
		if err != nil {
			return err
		}
		d.RouteVFInterrupts(vf, mq)
		buf := pl.Mem.MustAlloc(64<<10, 4096)
		read := func(lba uint64, blocks uint32) error {
			st, err := mq.Queue(0).Submit(p, ring.OpRead, lba, blocks, buf)
			return errors.Join(err, ring.StatusError(st))
		}
		start := p.Now()
		for lba := uint64(0); lba < 512; lba += 64 {
			if err := read(lba, 64); err != nil {
				return err
			}
		}
		head, err := pl.Mem.Slice(buf, 8)
		if err != nil {
			return err
		}
		fmt.Printf("VF %d streamed 512 KB to the accelerator in %v: %q...\n", vf, p.Now()-start, head)
		fmt.Println("past the dataset:", read(1<<30, 1))
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// VF 0 streamed 512 KB to the accelerator in 556.435us: "weights "...
	// past the dataset: nesc: request out of device range
}

// Fault injection: a seeded plan fails medium reads, drops interrupts and
// fails lazy allocations. The driver recovers a lost completion by polling and
// resubmitting; an allocation that keeps failing surfaces, and the write is
// retried. A forced function-level reset drains the VF. The same seed draws
// the same faults; the soak table in chaos_test.go arms every fault group and
// feature, the last row all at once.
func ExampleFaultPlan() {
	plan := &nesc.FaultPlan{Seed: 42}
	plan.Sites[nesc.FaultMediumRead] = nesc.FaultSiteParams{Prob: 0.01}
	plan.Sites[nesc.FaultMSI] = nesc.FaultSiteParams{Prob: 0.02}
	plan.Sites[nesc.FaultMissHandler] = nesc.FaultSiteParams{Prob: 0.2}
	cfg := nesc.DefaultConfig()
	cfg.Fault = plan
	cfg.DriverTimeout, cfg.DriverRetryMax = 3*time.Millisecond, 8
	sim := nesc.New(cfg)
	err := sim.Run(func(ctx *nesc.Ctx) error {
		if err := ctx.CreateImage("/tenant.img", 100, 1<<20, true); err != nil {
			return err
		}
		vm, err := ctx.StartVM("tenant", nesc.BackendNeSC, "/tenant.img", 100)
		if err != nil {
			return err
		}
		data, got := bytes.Repeat([]byte("nested "), 1<<13), make([]byte, 7<<13)
		for i := 0; i < 4; i++ {
			if err = vm.WriteAt(ctx, data, 0); err == nil {
				break
			}
			fmt.Println("write failed:", err)
		}
		if err != nil {
			return err
		}
		if err := vm.Reset(ctx); err != nil {
			return err
		}
		if err := vm.ReadAt(ctx, got, 0); err != nil {
			return err
		}
		fmt.Println("read back intact:", bytes.Equal(got, data))
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	st := sim.Stats()
	fmt.Printf("%d faults injected, %d driver timeouts, %d reset\n", st.InjectedFaults, st.DriverTimeouts, st.VFResets)
	// Output:
	// write failed: nesc: no space (hypervisor denied allocation)
	// write failed: nesc: no space (hypervisor denied allocation)
	// read back intact: true
	// 16 faults injected, 7 driver timeouts, 1 reset
}

// The experiment registry regenerates every table and figure of the paper.
func ExampleExperiments() {
	for _, e := range nesc.Experiments()[:3] {
		fmt.Println(e.Name)
	}
	// Output:
	// table1
	// table2
	// fig2
}
