package bench

import (
	"bytes"
	"fmt"

	"nesc/internal/extfs"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// Dedup measures the content-addressed block tier.
//
// The first table seals a family of similar images — golden-image variants
// sharing most of their blocks — and tracks how the chunk store deduplicates
// them: logical blocks grow linearly while unique chunks grow by only each
// image's divergence, so the dedup ratio climbs with every sibling sealed.
//
// The second table is the first-touch latency profile of a fork: a cold fork
// pays a remote fetch per chunk the first time the guest touches a block, a
// second fork on the same host rides the chunk cache, and a re-read of
// materialized blocks is indistinguishable from ordinary local extents.
//
// The third table forks one sealed golden image onto an 8-host fleet: fork
// cost is metadata-only (no chunk payload moves until a guest touches a
// block), and every host then materializes its own working set lazily.
func Dedup(cfg Config) ([]*stats.Table, error) {
	ratio, err := dedupRatio(cfg)
	if err != nil {
		return nil, err
	}
	lat, err := dedupLatency(cfg)
	if err != nil {
		return nil, err
	}
	fleet, err := dedupFleetFork(cfg)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{ratio, lat, fleet}, nil
}

// dedupFillImage writes blocks of seeded content into an image file on fs.
// seedOf names each block's content: blocks with equal seeds are identical
// across images and must deduplicate to one chunk.
func dedupFillImage(p *sim.Proc, fs *extfs.FS, path string, uid uint32, blocks, blockSize int, seedOf func(b int) int64) error {
	f, err := fs.Open(p, path, uid, extfs.PermWrite)
	if err != nil {
		return err
	}
	buf := make([]byte, blockSize)
	for b := 0; b < blocks; b++ {
		fabricFill(buf, seedOf(b))
		if _, err := f.WriteAt(p, buf, int64(b)*int64(blockSize)); err != nil {
			return err
		}
	}
	return nil
}

func dedupRatio(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("CAS dedup: sealing 8 similar 512 KB images (1/8 of each image diverges)",
		"images sealed", "", "logical blocks", "unique chunks", "dedup ratio", "dedup hits")
	const imageBlocks = 512
	cfg.CAS = true
	_, err := runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
		d := pl.Hyp.Device(0)
		for i := 0; i < 8; i++ {
			path := fmt.Sprintf("/variant%d.img", i)
			if err := d.MkImage(p, path, 1, imageBlocks, true); err != nil {
				return err
			}
			// Every 8th block is this variant's own divergence (installed
			// packages, host keys); the rest is the shared base content.
			err := dedupFillImage(p, d.HostFS, path, 1, imageBlocks, cfg.Core.BlockSize, func(b int) int64 {
				if b%8 == 0 {
					return int64(1000*(i+1) + b)
				}
				return int64(b)
			})
			if err != nil {
				return err
			}
			if _, err := pl.CAS.SealImage(p, d, path, fmt.Sprintf("variant%d", i), 1); err != nil {
				return err
			}
			if n := i + 1; n&(n-1) == 0 { // report after 1, 2, 4 and 8 images
				st := pl.CAS.Store.Stats()
				tbl.SetRow(fmt.Sprintf("%d", n), float64(st.BlocksLogical), float64(st.ChunksLive), pl.CAS.Store.DedupRatio(), float64(st.DedupHits))
			}
		}
		st := pl.CAS.Store.Stats()
		tbl.Note("remote tier carried %d chunk payloads in %d batched PUT round trip(s) for %d logical blocks",
			st.ChunksLive, st.RemotePuts, st.BlocksLogical)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("dedup ratio = logical blocks referenced / unique chunks stored; siblings add only their divergent 1/8")
	return tbl, nil
}

func dedupLatency(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("CAS first touch: 4KB reads over a 256 KB fork (cold fetch vs warm cache vs materialized)",
		"pass", "", "mean latency us", "p99 latency us", "remote fetches", "cache hits")
	const imageBlocks = 256
	cfg.CAS = true
	cfg.CASCacheChunks = 1024 // hold the whole image: the warm pass must never evict
	bs := cfg.Core.BlockSize
	_, err := runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
		d := pl.Hyp.Device(0)
		if err := d.MkImage(p, "/master.img", 1, imageBlocks, true); err != nil {
			return err
		}
		err := dedupFillImage(p, d.HostFS, "/master.img", 1, imageBlocks, bs, func(b int) int64 {
			return int64(5000 + b) // all blocks distinct: no intra-image dedup masking fetches
		})
		if err != nil {
			return err
		}
		if _, err := pl.CAS.SealImage(p, d, "/master.img", "golden", 1); err != nil {
			return err
		}
		// pass reads the whole disk of vm through a fresh target; a nil vm is
		// first forked from the golden image at path and booted.
		pass := func(row, path string, vm *hypervisor.VM) (*hypervisor.VM, error) {
			if vm == nil {
				if err := pl.CAS.ForkImage(p, d, "golden", path, 1); err != nil {
					return nil, err
				}
				var err error
				if vm, _, err = pl.bootVM(p, row, path, 1); err != nil {
					return nil, err
				}
			}
			preF := pl.CAS.Store.Stats().RemoteFetches
			preH := pl.CAS.CacheStats().Hits
			res, err := (workload.DD{BlockBytes: 4096, TotalBytes: int64(imageBlocks * bs)}).Run(p, NewVMRawTarget(vm.Kernel))
			if err != nil {
				return nil, err
			}
			tbl.SetRow(row, res.MeanLatencyUs(), res.Lat.Percentile(99),
				float64(pl.CAS.Store.Stats().RemoteFetches-preF), float64(pl.CAS.CacheStats().Hits-preH))
			return vm, nil
		}
		cold, err := pass("cold fork (remote fetch)", "/cold.img", nil)
		if err != nil {
			return err
		}
		if _, err := pass("warm fork (cache hit)", "/warm.img", nil); err != nil {
			return err
		}
		_, err = pass("materialized re-read", "", cold)
		return err
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("cold first touch rides the translation-miss path to the remote tier (latency + bandwidth cost model)")
	tbl.Note("the warm fork pays the same miss interrupt but serves every chunk from the host cache; re-reads of materialized blocks are ordinary extent hits")
	return tbl, nil
}

func dedupFleetFork(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("CAS fleet provisioning: one 1 MB golden image forked onto 8 hosts",
		"metric", "", "value")
	const imageBlocks = 1024
	const hosts = 8
	cfg.CAS = true
	cfg.NumDevices = hosts
	bs := cfg.Core.BlockSize
	_, err := runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
		d0 := pl.Hyp.Device(0)
		if err := d0.MkImage(p, "/golden.img", 1, imageBlocks, true); err != nil {
			return err
		}
		err := dedupFillImage(p, d0.HostFS, "/golden.img", 1, imageBlocks, bs, func(b int) int64 {
			return int64(9000 + b)
		})
		if err != nil {
			return err
		}
		sealStart := p.Now()
		if _, err := pl.CAS.SealImage(p, d0, "/golden.img", "golden", 1); err != nil {
			return err
		}
		sealTime := p.Now() - sealStart
		// Fork onto every host: metadata-only, so not one chunk payload may
		// cross the fabric until a guest touches a block.
		var forkMax sim.Time
		forkStart := p.Now()
		for i := 0; i < hosts; i++ {
			t0 := p.Now()
			if err := pl.CAS.ForkImage(p, pl.Hyp.Device(i), "golden", "/guest.img", 1); err != nil {
				return err
			}
			forkMax = max(forkMax, p.Now()-t0)
		}
		forkTotal := p.Now() - forkStart
		if f := pl.CAS.Store.Stats().RemoteFetches; f != 0 {
			return fmt.Errorf("fork moved %d chunk payloads; provisioning must be metadata-only", f)
		}
		tbl.SetRow("seal us (1024 blocks)", float64(sealTime)/1000)
		tbl.SetRow("mean fork us per host", float64(forkTotal)/hosts/1000)
		tbl.SetRow("max fork us", float64(forkMax)/1000)
		tbl.SetRow("chunk payloads moved at fork", 0)
		tbl.SetRow("dedup ratio after 8 forks", pl.CAS.Store.DedupRatio())
		// Every host boots a guest and first-touches its own 128 KB working
		// set, verifying the materialized content bit-exactly.
		const touchBlocks = 128
		want := make([]byte, bs)
		got := make([]byte, int(touchBlocks)*bs)
		touchStart := p.Now()
		for i := 0; i < hosts; i++ {
			vm, _, err := pl.bootVM(p, fmt.Sprintf("guest%d", i), "/guest.img", 1, func(c *hypervisor.VMConfig) { c.Device = i })
			if err != nil {
				return err
			}
			// Stagger working sets so hosts materialize different chunks.
			off := int64(i) * touchBlocks * int64(bs)
			if err := vm.Kernel.ReadBytes(p, off, got); err != nil {
				return fmt.Errorf("host %d first touch: %w", i, err)
			}
			for b := 0; b < touchBlocks; b++ {
				fabricFill(want, int64(9000)+off/int64(bs)+int64(b))
				if !bytes.Equal(got[b*bs:(b+1)*bs], want) {
					return fmt.Errorf("host %d block %d materialized wrong content", i, b)
				}
			}
		}
		touchTime := p.Now() - touchStart
		st := pl.CAS.Store.Stats()
		tbl.SetRow("first-touch blocks per host", touchBlocks)
		tbl.SetRow("mean first-touch us per host", float64(touchTime)/hosts/1000)
		tbl.SetRow("remote fetches after first touch", float64(st.RemoteFetches))
		tbl.SetRow("materializations after first touch", float64(pl.CAS.Materializations))
		tbl.Note("8 hosts reference %d logical blocks backed by %d unique chunks; fork time is refcounts plus one metadata PUT",
			st.BlocksLogical, st.ChunksLive)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("every host verifies its materialized working set bit-exactly against the sealed content")
	return tbl, nil
}
