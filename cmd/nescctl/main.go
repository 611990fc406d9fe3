// Command nescctl is a management-plane walkthrough of the simulated NeSC
// platform: it plays the role of a cloud operator's control tool, showing
// every step of the paper's operational flow (§IV-C) with live device
// introspection — image creation, VF export with permission checks, guest
// I/O, lazy allocation, extent-tree pruning, BTLB behaviour, and teardown.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"nesc"
)

func main() {
	mediumMB := flag.Int("medium-mb", 128, "storage medium size in MiB")
	tenants := flag.Int("tenants", 3, "number of tenant VMs to demo")
	imageMB := flag.Int("image-mb", 8, "per-tenant image size in MiB")
	traceN := flag.Int("trace", 0, "dump the last N device events at the end")
	traceVF := flag.Int("trace-vf", -1, "restrict -trace output to one function index (0 = PF; -1 = all)")
	queues := flag.Int("queues", 0, "queue pairs per VF (0 = device default of 1)")
	scrub := flag.Bool("scrub", false, "run a synchronous full-device scrub pass before teardown")
	snapshot := flag.Bool("snapshot", false, "demo a copy-on-write snapshot of a running VM (CoW faults, BTLB invalidation)")
	clone := flag.Bool("clone", false, "demo a writable clone VM forked from a snapshot (implies -snapshot)")
	metricsOut := flag.String("metrics", "", "write Prometheus text-format metrics to this file at the end ('-' = stdout)")
	traceJSON := flag.String("trace-json", "", "write recorded request spans as Chrome trace-event JSON to this file (load in Perfetto)")
	spanN := flag.Int("spans", 4096, "request spans to retain for -trace-json")
	flight := flag.Bool("flight", false, "dump the device flight recorder (terminal-error diagnostics) at the end")
	fabricN := flag.Int("fabric", 0, "demo an N-device mirror fleet: synchronous replication, device kill, failover, resilver (needs N >= 2)")
	migrate := flag.Bool("migrate", false, "demo a live VF migration between fleet devices (implies -fabric 2)")
	scale := flag.Bool("scale", false, "run the massive-tenancy experiment (nescbench -exp scale) and print its tables: lazy VF core, pooled queue pairs, shadow doorbells")
	grayfail := flag.Bool("grayfail", false, "run the gray-failure experiment (nescbench -exp grayfail) and print its tables: fail-slow injection, hedged reads, quarantine, deadline + admission control")
	top := flag.Bool("top", false, "demo the observability layer and print the health snapshot: latency attribution, per-tenant SLO burn alerts, anomaly scoreboard")
	dedup := flag.Bool("dedup", false, "demo the content-addressed tier: image sealing with dedup, metadata-only fleet forks, lazy chunk materialization, refcounted reclamation")
	flag.Parse()

	if *scale {
		printExperiment("scale")
		return
	}
	if *grayfail {
		printExperiment("grayfail")
		return
	}
	if *top {
		if err := runTopDemo(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *dedup {
		if err := runDedupDemo(); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *migrate && *fabricN < 2 {
		*fabricN = 2
	}
	cfg := nesc.Config{MediumMB: *mediumMB, TraceEvents: *traceN, QueuesPerVF: *queues, Metrics: *metricsOut != ""}
	if *fabricN >= 2 {
		cfg.Devices = *fabricN
		// An empty plan arms no fault sites; it just supplies the injector
		// whose device kill latch the walkthrough flips.
		cfg.Fault = &nesc.FaultPlan{Seed: 1}
	}
	if *traceJSON != "" {
		cfg.TraceSpans = *spanN
	}
	sim := nesc.New(cfg)
	step := 0
	say := func(format string, args ...any) {
		step++
		fmt.Printf("[%02d] ", step)
		fmt.Printf(format+"\n", args...)
	}

	err := sim.Run(func(ctx *nesc.Ctx) error {
		say("booted: host filesystem formatted on the NeSC physical function")

		type tenant struct {
			uid  uint32
			path string
			vm   *nesc.VM
		}
		var ts []*tenant
		for i := 0; i < *tenants; i++ {
			t := &tenant{uid: uint32(1000 + i), path: fmt.Sprintf("/images/tenant%d.img", i)}
			if i == 0 {
				if err := ctx.HostMkdir("/images", 0); err != nil {
					return err
				}
			}
			if err := ctx.CreateImage(t.path, t.uid, int64(*imageMB)<<20, false); err != nil {
				return err
			}
			st, err := ctx.StatHost(t.path)
			if err != nil {
				return err
			}
			say("created %s: %d MB, uid %d, %d extents", t.path, st.Size>>20, st.UID, st.Extents)
			ts = append(ts, t)
		}

		// Permission gate.
		if _, err := ctx.StartVM("intruder", nesc.BackendNeSC, ts[0].path, 9999); err != nil {
			say("VF export for uid 9999 on %s denied: %v", ts[0].path, err)
		} else {
			return fmt.Errorf("permission gate failed")
		}

		for i, t := range ts {
			vm, err := ctx.StartVM(fmt.Sprintf("vm%d", i), nesc.BackendNeSC, t.path, t.uid)
			if err != nil {
				return err
			}
			t.vm = vm
			say("vm%d attached: VF %d, %d MB virtual disk", i, vm.VFIndex(), vm.DiskSize()>>20)
		}

		// Guest I/O with verification.
		for i, t := range ts {
			pattern := bytes.Repeat([]byte{byte(0xC0 + i)}, 128<<10)
			for off := int64(0); off < 1<<20; off += int64(len(pattern)) {
				if err := t.vm.WriteAt(ctx, pattern, off); err != nil {
					return err
				}
			}
			got := make([]byte, len(pattern))
			if err := t.vm.ReadAt(ctx, got, 0); err != nil {
				return err
			}
			if !bytes.Equal(got, pattern) {
				return fmt.Errorf("vm%d data mismatch", i)
			}
		}
		st := sim.Stats()
		say("each VM wrote 1 MB and verified it; BTLB hit rate %.2f, %d miss interrupts",
			st.BTLBHitRate, st.MissInterrupts)

		// Lazy allocation on a sparse image.
		if err := ctx.CreateImage("/images/sparse.img", ts[0].uid, 4<<20, true); err != nil {
			return err
		}
		sparseVM, err := ctx.StartVM("sparse", nesc.BackendNeSC, "/images/sparse.img", ts[0].uid)
		if err != nil {
			return err
		}
		if err := sparseVM.WriteAt(ctx, []byte("first touch"), 2<<20); err != nil {
			return err
		}
		say("sparse image: first-touch write allocated blocks via %d miss interrupt(s)",
			sim.Stats().MissInterrupts-st.MissInterrupts)

		// Memory pressure: prune extent trees; reads regenerate on demand.
		freed := ctx.PruneExtentTrees(1 << 20)
		probe := make([]byte, 4096)
		if err := ts[0].vm.ReadAt(ctx, probe, 512<<10); err != nil {
			return err
		}
		say("pruned %d tree nodes under memory pressure; a later read regenerated mappings transparently", freed)

		// BTLB flush (e.g. before host-side dedup).
		ctx.FlushBTLB()
		say("BTLB flushed (host-side block optimization barrier)")

		// Multi-device fabric: synchronous mirroring, failover, resilver,
		// and (optionally) live VF migration.
		if *fabricN >= 2 {
			devs := make([]int, *fabricN)
			for i := range devs {
				devs[i] = i
			}
			const muid = 2000
			for _, d := range devs {
				if err := ctx.CreateImageOn(d, "/mirror.img", muid, 2<<20, false); err != nil {
					return err
				}
			}
			mvm, err := ctx.StartMirroredVM("mirror0", "/mirror.img", muid, devs, nesc.MirrorConfig{})
			if err != nil {
				return err
			}
			say("mirror0 attached: one VF on each of %d devices, writes acknowledged only when every live replica has them", *fabricN)
			pattern := bytes.Repeat([]byte{0xAB}, 64<<10)
			for off := int64(0); off < 512<<10; off += int64(len(pattern)) {
				if err := mvm.WriteAt(ctx, pattern, off); err != nil {
					return err
				}
			}
			victim := *fabricN - 1
			if err := ctx.KillDevice(victim); err != nil {
				return err
			}
			say("device %d kill-latched under the running mirror", victim)
			for off := int64(512) << 10; off < 1<<20; off += int64(len(pattern)) {
				if err := mvm.WriteAt(ctx, pattern, off); err != nil {
					return err
				}
			}
			st := mvm.FabricStatus()
			say("mirror continued degraded: device %d is %q with %d dirty region(s) to resilver", victim, st[victim].State, st[victim].DirtyRegions)
			got := make([]byte, len(pattern))
			if err := mvm.ReadAt(ctx, got, 768<<10); err != nil {
				return err
			}
			if !bytes.Equal(got, pattern) {
				return fmt.Errorf("degraded mirror lost an acknowledged write")
			}
			say("degraded-mode read-back verified: no acknowledged write lost")
			if err := ctx.ReviveDevice(victim); err != nil {
				return err
			}
			for i := 0; i < 400 && mvm.FabricStatus()[victim].State != "healthy"; i++ {
				ctx.Sleep(100 * time.Microsecond)
			}
			fst := sim.FabricStats()
			say("device %d revived; resilver copied %d blocks and restored full redundancy (state %q)",
				victim, fst.ResilverBlocks, mvm.FabricStatus()[victim].State)
			mvm.Stop(ctx)

			if *migrate {
				if err := ctx.CreateImageOn(0, "/mig.img", muid, 2<<20, false); err != nil {
					return err
				}
				lvm, err := ctx.StartMirroredVM("mig0", "/mig.img", muid, []int{0}, nesc.MirrorConfig{})
				if err != nil {
					return err
				}
				for off := int64(0); off < 1<<20; off += int64(len(pattern)) {
					if err := lvm.WriteAt(ctx, pattern, off); err != nil {
						return err
					}
				}
				rep, err := lvm.Migrate(ctx, 0, 1)
				if err != nil {
					return err
				}
				say("mig0 live-migrated device 0 -> 1: %d blocks bulk-copied, %d pre-copy pass(es), %v stop-and-copy pause",
					rep.BulkBlocks, rep.Passes, time.Duration(rep.Pause))
				if err := lvm.ReadAt(ctx, got, 512<<10); err != nil {
					return err
				}
				if !bytes.Equal(got, pattern) {
					return fmt.Errorf("migration lost data")
				}
				say("post-migration read-back verified on device 1")
				lvm.Stop(ctx)
			}
		}

		// Copy-on-write snapshots and clones (device-enforced sharing).
		if *snapshot || *clone {
			pre := sim.Stats()
			if err := ts[0].vm.Snapshot(ctx, "/images/tenant0.snap", ts[0].uid); err != nil {
				return err
			}
			say("snapshot /images/tenant0.snap taken while vm0 runs; %d host blocks now shared",
				ctx.SharedBlocks())

			// A read first: it caches the now write-protected extent in the
			// BTLB without faulting, so the write below also demonstrates
			// the stale-entry invalidation.
			warm := make([]byte, 4096)
			if err := ts[0].vm.ReadAt(ctx, warm, 0); err != nil {
				return err
			}
			if err := ts[0].vm.WriteAt(ctx, []byte("post-snapshot write"), 0); err != nil {
				return err
			}
			d := sim.Stats()
			say("vm0's first write to a shared extent trapped as %d CoW fault(s); the break invalidated %d BTLB entr(y/ies)",
				d.CowFaults-pre.CowFaults, d.BTLBInvalidations-pre.BTLBInvalidations)
			probe := make([]byte, 16)
			if _, err := ctx.ReadHostFile("/images/tenant0.snap", probe, 0); err != nil {
				return err
			}
			if probe[0] != 0xC0 {
				return fmt.Errorf("vm0's post-snapshot write leaked into the snapshot")
			}
			say("snapshot still reads the point-in-time image; vm0 sees its own write")

			if *clone {
				fork, err := ctx.CloneVM(ts[0].vm, "fork0", "/images/tenant0.clone", ts[0].uid)
				if err != nil {
					return err
				}
				say("clone fork0 attached: VF %d on /images/tenant0.clone, a writable fork of vm0's disk", fork.VFIndex())
				if err := fork.WriteAt(ctx, []byte("clone divergence"), 64<<10); err != nil {
					return err
				}
				if err := ts[0].vm.ReadAt(ctx, probe, 64<<10); err != nil {
					return err
				}
				if probe[0] != 0xC0 {
					return fmt.Errorf("clone write leaked into vm0's disk")
				}
				say("fork0 diverged at its own pace; vm0's disk is untouched")
				fork.Stop(ctx)
				if err := ctx.DeleteSnapshot("/images/tenant0.clone", ts[0].uid); err != nil {
					return err
				}
			}
			if err := ctx.DeleteSnapshot("/images/tenant0.snap", ts[0].uid); err != nil {
				return err
			}
			say("snapshots deleted, private blocks reclaimed; %d blocks still shared", ctx.SharedBlocks())
		}

		// Optional integrity scrub: walk the whole device through the PF,
		// verifying every block's guard tag.
		if *scrub {
			rep := ctx.Scrub()
			say("scrub pass: %d blocks verified in %d requests, %d integrity errors, %d repairs",
				rep.Blocks, rep.Requests, rep.Errors, rep.Repairs)
		}

		// Teardown.
		for i, t := range ts {
			t.vm.Stop(ctx)
			say("vm%d stopped; VF released", i)
		}
		if err := ctx.CheckHostFS(); err != nil {
			return err
		}
		say("host filesystem fsck: clean; virtual time %v", ctx.Now())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	final := sim.Stats()
	fmt.Printf("\nfinal device counters: %d tree-node DMA fetches, %d/%d MB medium read/write, %d MSIs serviced\n",
		final.WalkNodeReads, final.MediumReadBytes>>20, final.MediumWriteBytes>>20, final.MissInterrupts)
	fmt.Printf("integrity counters: %d guard errors, %d repairs, %d corruptions detected, %d latent outstanding\n",
		final.IntegrityErrors, final.IntegrityRepairs, final.CorruptionsDetected, final.LatentOutstanding)
	if *traceN > 0 {
		if *traceVF >= 0 {
			fmt.Printf("\nlast device events (fn %d):\n%s", *traceVF, sim.TraceDumpVF(*traceVF))
		} else {
			fmt.Printf("\nlast device events:\n%s", sim.TraceDump())
		}
	}
	if *flight {
		fmt.Printf("\n%s", sim.FlightDump())
	}
	if *metricsOut != "" {
		if err := writeTo(*metricsOut, sim.WriteMetrics); err != nil {
			log.Fatalf("-metrics: %v", err)
		}
	}
	if *traceJSON != "" {
		if err := writeTo(*traceJSON, sim.WriteTraceJSON); err != nil {
			log.Fatalf("-trace-json: %v", err)
		}
		fmt.Printf("wrote %d spans to %s (load at ui.perfetto.dev)\n", sim.SpanCount(), *traceJSON)
	}
}

// writeTo streams fn's output to path, with "-" meaning stdout.
func writeTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printExperiment runs a registered experiment on the calibrated platform and
// prints its tables — all that -scale and -grayfail do.
func printExperiment(name string) {
	out, err := nesc.RunExperiment(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}
