package main

import (
	"bytes"
	"fmt"
	"io"

	"nesc"
)

// runDedupDemo is the content-addressed-tier walkthrough behind -dedup: it
// seals a golden image and a mostly-identical variant into the chunk store
// (showing dedup), forks the golden manifest onto a 4-host fleet as
// metadata-only copies, boots a guest per host whose first touches
// materialize chunks through the translation-miss path, and tears the forks
// down showing refcounted chunk reclamation.
func runDedupDemo(w io.Writer) error {
	const (
		hosts      = 4
		imageKB    = 512
		blockSize  = 1024
		blocks     = imageKB * 1024 / blockSize
		touchBytes = 64 * 1024
	)
	sim := nesc.New(nesc.Config{
		MediumMB: 64,
		Devices:  hosts,
		CAS:      true,
	})
	say := narrator(w)

	fill := func(buf []byte, divergent bool) {
		for i := range buf {
			b := i / blockSize
			if divergent && b%4 == 0 {
				buf[i] = byte(i*11 + b*131 + 201)
			} else {
				buf[i] = byte(i*7 + b*31 + 3)
			}
		}
	}

	return sim.Run(func(ctx *nesc.Ctx) error {
		say("booted a %d-host fleet with the content-addressed tier enabled", hosts)

		golden := make([]byte, imageKB*1024)
		fill(golden, false)
		if err := ctx.CreateImage("/golden.img", 1, int64(len(golden)), true); err != nil {
			return err
		}
		if err := ctx.WriteHostFile("/golden.img", golden, 0); err != nil {
			return err
		}
		m, err := ctx.SealImage("/golden.img", "golden", 1)
		if err != nil {
			return err
		}
		st := sim.Stats()
		say("sealed /golden.img as %q: %d blocks hashed into %d unique chunks, pushed in %d batched PUT(s)",
			m.Name, m.Blocks, st.CASChunksLive, st.CASRemotePuts)

		variant := make([]byte, imageKB*1024)
		fill(variant, true)
		if err := ctx.CreateImage("/variant.img", 1, int64(len(variant)), true); err != nil {
			return err
		}
		if err := ctx.WriteHostFile("/variant.img", variant, 0); err != nil {
			return err
		}
		if _, err := ctx.SealImage("/variant.img", "variant", 1); err != nil {
			return err
		}
		st = sim.Stats()
		say("sealed a variant sharing 3/4 of its blocks: %d dedup hits, %d chunks live, dedup ratio %.2fx",
			st.CASDedupHits, st.CASChunksLive, sim.CASDedupRatio())

		preF := sim.Stats().CASRemoteFetches
		for d := 0; d < hosts; d++ {
			if err := ctx.ForkImageOn(d, "golden", "/guest.img", 1); err != nil {
				return err
			}
		}
		st = sim.Stats()
		say("forked %q onto all %d hosts: metadata-only (%d chunk payloads moved), dedup ratio now %.2fx",
			"golden", hosts, st.CASRemoteFetches-preF, sim.CASDedupRatio())

		got := make([]byte, touchBytes)
		vms := make([]*nesc.VM, hosts)
		for d := 0; d < hosts; d++ {
			vm, err := ctx.StartVMOn(d, fmt.Sprintf("guest%d", d), nesc.BackendNeSC, "/guest.img", 1)
			if err != nil {
				return err
			}
			vms[d] = vm
			// Stagger working sets so every host materializes its own chunks.
			off := int64(d) * touchBytes
			if err := vm.ReadAt(ctx, got, off); err != nil {
				return fmt.Errorf("host %d first touch: %w", d, err)
			}
			if !bytes.Equal(got, golden[off:off+touchBytes]) {
				return fmt.Errorf("host %d materialized wrong content", d)
			}
		}
		st = sim.Stats()
		say("booted a guest per host; first touches raised %d fetch misses, materialized %d blocks via %d remote fetches (all verified bit-exact)",
			st.CASFetchMisses, st.CASMaterializations, st.CASRemoteFetches)

		pre := st
		if err := vms[0].ReadAt(ctx, got, 0); err != nil {
			return err
		}
		st = sim.Stats()
		say("re-read of materialized blocks: %d new remote fetches (ordinary local extents now)",
			st.CASRemoteFetches-pre.CASRemoteFetches)

		for d := 0; d < hosts; d++ {
			vms[d].Stop(ctx)
			if err := ctx.ReleaseImageOn(d, "/guest.img"); err != nil {
				return err
			}
		}
		if err := ctx.ReleaseSealed("golden"); err != nil {
			return err
		}
		if err := ctx.ReleaseSealed("variant"); err != nil {
			return err
		}
		st = sim.Stats()
		say("released every fork and both masters: %d chunks still live, virtual time %v",
			st.CASChunksLive, ctx.Now())
		return nil
	})
}
