// Package guest models the guest operating system's storage stack: the
// generic block layer and I/O scheduler costs, the block drivers for the
// three virtual-disk flavours the paper compares (a directly assigned NeSC
// VF, virtio-blk, and a fully emulated PIO device), and the glue that mounts
// the extent filesystem on any of them.
//
// The paper's Figure 1 shows the software layers each I/O request crosses;
// this package is the guest half of that figure. Layer costs are explicit
// parameters so the benchmark harness can attribute overheads the way the
// paper's evaluation does.
package guest

import (
	"fmt"

	"nesc/internal/extfs"
	"nesc/internal/hostmem"
	"nesc/internal/sim"
)

// Params is the guest kernel cost model.
type Params struct {
	// StackTime is the per-request cost of the VFS-to-driver path (generic
	// block layer, I/O scheduler, request setup).
	StackTime sim.Time
	// CompletionTime is the per-request completion path (interrupt handler
	// bottom half, bio completion).
	CompletionTime sim.Time
	// MemcpyBandwidth models in-guest copies (bounce buffers, RMW edges).
	MemcpyBandwidth float64
	// FSOpCost is the per-operation CPU cost of the guest filesystem layer
	// (passed to extfs when mounting).
	FSOpCost sim.Time
	// CacheBlocks sizes the guest block-layer buffer cache ("the block
	// layer, which caches disk blocks", paper §II). The cache is
	// write-through and only serves the mounted-filesystem path; raw-device
	// access (the paper's Figures 9/10 measurements) bypasses it. The
	// paper's guests get 128 MB of RAM precisely so this cache cannot
	// swallow the whole 1 GB device.
	CacheBlocks int
}

// DefaultParams returns costs representative of a 2.4 GHz Sandy Bridge guest
// (Table I).
func DefaultParams() Params {
	return Params{
		StackTime:       2500 * sim.Nanosecond,
		CompletionTime:  1200 * sim.Nanosecond,
		MemcpyBandwidth: 8e9,
		FSOpCost:        1800 * sim.Nanosecond,
		CacheBlocks:     8192, // 8 MB of 1 KB blocks
	}
}

// Buffer is a guest-RAM data buffer: a live view plus its DMA-able address.
type Buffer struct {
	Addr hostmem.Addr
	Data []byte
}

// BlockDriver is the interface the guest block layer drives. Submit blocks
// the calling process until the request completes.
type BlockDriver interface {
	BlockSize() int
	CapacityBlocks() int64
	// MaxBlocksPerReq is the driver's request-size limit; the block layer
	// splits larger I/O (the NeSC driver "breaks large requests down to
	// scatter-gather lists of smaller chunks", §IV-C).
	MaxBlocksPerReq() int
	Submit(p *sim.Proc, write bool, lba int64, buf Buffer) error
}

// Kernel is one guest's I/O stack instance.
type Kernel struct {
	Eng *sim.Engine
	Mem *hostmem.Memory
	P   Params
	Drv BlockDriver

	// Requests counts driver submissions (after splitting).
	Requests int64
}

// NewKernel builds a guest kernel over a block driver.
func NewKernel(eng *sim.Engine, mem *hostmem.Memory, p Params, drv BlockDriver) *Kernel {
	return &Kernel{Eng: eng, Mem: mem, P: p, Drv: drv}
}

// AllocBuffer allocates an n-byte DMA-able buffer in mem.
func AllocBuffer(mem *hostmem.Memory, n int64) Buffer {
	addr := mem.MustAlloc(n, 64)
	data, err := mem.Slice(addr, n)
	if err != nil {
		panic(err)
	}
	return Buffer{Addr: addr, Data: data}
}

// Free returns b, which AllocBuffer made in mem, to mem; b's Data is dead
// from then on.
func (b Buffer) Free(mem *hostmem.Memory) { free(mem, b.Addr) }

// free returns allocations this package made in mem, skipping unset (zero)
// addresses.
func free(mem *hostmem.Memory, addrs ...hostmem.Addr) {
	for _, a := range addrs {
		if a == 0 {
			continue
		}
		if err := mem.Free(a); err != nil {
			panic(err) // a model bug: the package frees only what it allocated
		}
	}
}

// Ensure makes b a grow-only bounce buffer: it returns b's first n bytes,
// first replacing b with a fresh allocation of exactly n bytes when it is
// shorter and returning the allocation it outgrew to mem.
func (b *Buffer) Ensure(mem *hostmem.Memory, n int) Buffer {
	if len(b.Data) < n {
		if b.Data != nil {
			b.Free(mem)
		}
		*b = AllocBuffer(mem, int64(n))
	}
	return Buffer{Addr: b.Addr, Data: b.Data[:n]}
}

// AllocBuffer allocates an n-byte DMA-able buffer in guest RAM.
func (k *Kernel) AllocBuffer(n int64) Buffer { return AllocBuffer(k.Mem, n) }

// memcpyCost charges the in-guest copy cost for n bytes.
func (k *Kernel) memcpyCost(p *sim.Proc, n int) {
	p.Sleep(sim.BytesTime(int64(n), k.P.MemcpyBandwidth))
}

// SubmitAligned performs one block-layer I/O request on buf (length a
// multiple of the driver block size). The block layer charges its per-
// request cost once, splits the request into driver-sized chunks, and issues
// the chunks concurrently as a scatter-gather list — the paper's drivers
// "break large requests down to scatter-gather lists of smaller chunks"
// (§IV-C), which is what lets sequential streams saturate the device.
func (k *Kernel) SubmitAligned(p *sim.Proc, write bool, lba int64, buf Buffer) error {
	bs := k.Drv.BlockSize()
	if len(buf.Data)%bs != 0 {
		return fmt.Errorf("guest: unaligned submit of %d bytes", len(buf.Data))
	}
	blocks := int64(len(buf.Data) / bs)
	if blocks == 0 {
		return nil
	}
	maxB := int64(k.Drv.MaxBlocksPerReq())
	p.Sleep(k.P.StackTime)
	k.Requests++
	sub := func(q *sim.Proc, off, n int64) error {
		chunk := Buffer{
			Addr: buf.Addr + off*int64(bs),
			Data: buf.Data[off*int64(bs) : (off+n)*int64(bs)],
		}
		return k.Drv.Submit(q, write, lba+off, chunk)
	}
	var err error
	if blocks <= maxB {
		err = sub(p, 0, blocks)
	} else {
		wg := sim.NewWaitGroup(k.Eng)
		var firstErr error
		for done := int64(0); done < blocks; done += maxB {
			n := blocks - done
			if n > maxB {
				n = maxB
			}
			wg.Add(1)
			off := done
			k.Eng.Go("sg-chunk", func(q *sim.Proc) {
				if e := sub(q, off, n); e != nil && firstErr == nil {
					firstErr = e
				}
				wg.Done()
			})
		}
		wg.WaitFor(p)
		err = firstErr
	}
	if err != nil {
		return err
	}
	p.Sleep(k.P.CompletionTime)
	return nil
}

// ReadBytes reads byte-granular ranges from the raw device, performing the
// block-level read-modify cropping the kernel page cache would do (dd with
// bs=512 on a 1 KB-block device). The bounce buffer the blocks land in lives
// for this call only.
func (k *Kernel) ReadBytes(p *sim.Proc, off int64, out []byte) error {
	if len(out) == 0 {
		return nil
	}
	bs := int64(k.Drv.BlockSize())
	first := off / bs
	last := (off + int64(len(out)) - 1) / bs
	buf := k.AllocBuffer((last - first + 1) * bs)
	defer buf.Free(k.Mem)
	if err := k.SubmitAligned(p, false, first, buf); err != nil {
		return err
	}
	copy(out, buf.Data[off-first*bs:])
	k.memcpyCost(p, len(out))
	return nil
}

// WriteBytes writes byte-granular ranges, read-modify-writing partial edge
// blocks, through a bounce buffer that lives for this call only.
func (k *Kernel) WriteBytes(p *sim.Proc, off int64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	bs := int64(k.Drv.BlockSize())
	first := off / bs
	last := (off + int64(len(data)) - 1) / bs
	span := (last - first + 1) * bs
	buf := k.AllocBuffer(span)
	defer buf.Free(k.Mem)
	firstPartial := off%bs != 0
	lastPartial := (off+int64(len(data)))%bs != 0
	if firstPartial {
		edge := Buffer{Addr: buf.Addr, Data: buf.Data[:bs]}
		if err := k.SubmitAligned(p, false, first, edge); err != nil {
			return err
		}
	}
	if lastPartial && last != first {
		edge := Buffer{Addr: buf.Addr + span - bs, Data: buf.Data[span-bs:]}
		if err := k.SubmitAligned(p, false, last, edge); err != nil {
			return err
		}
	}
	copy(buf.Data[off-first*bs:], data)
	k.memcpyCost(p, len(data))
	return k.SubmitAligned(p, true, first, buf)
}

// Disk adapts the kernel's block path into an extfs.BlockDev so a guest
// filesystem can be mounted on the virtual disk (the nested filesystem of
// paper §IV-D). It carries the guest buffer cache: a write-through LRU of
// whole blocks, so repeated reads of hot data cost a memory copy instead of
// a device round trip — the reason application-level speedups (Fig. 12) are
// far smaller than raw-device speedups (Figs. 9–10).
type Disk struct {
	k *Kernel

	cache    map[int64]*cacheEnt
	lruHead  *cacheEnt // most recent
	lruTail  *cacheEnt
	cacheCap int

	// CacheHits / CacheMisses count block-level cache outcomes.
	CacheHits, CacheMisses int64
}

type cacheEnt struct {
	lba        int64
	data       []byte
	prev, next *cacheEnt
}

// NewDisk returns the mountable view of the kernel's block device.
func NewDisk(k *Kernel) *Disk {
	return &Disk{k: k, cache: make(map[int64]*cacheEnt), cacheCap: k.P.CacheBlocks}
}

func (d *Disk) lruRemove(e *cacheEnt) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		d.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		d.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (d *Disk) lruPush(e *cacheEnt) {
	e.next = d.lruHead
	if d.lruHead != nil {
		d.lruHead.prev = e
	}
	d.lruHead = e
	if d.lruTail == nil {
		d.lruTail = e
	}
}

// cacheTouch marks e most-recently used.
func (d *Disk) cacheTouch(e *cacheEnt) {
	if d.lruHead == e {
		return
	}
	d.lruRemove(e)
	d.lruPush(e)
}

// cacheInsert stores a block copy, evicting the LRU block if full.
func (d *Disk) cacheInsert(lba int64, data []byte) {
	if d.cacheCap <= 0 {
		return
	}
	if e, ok := d.cache[lba]; ok {
		copy(e.data, data)
		d.cacheTouch(e)
		return
	}
	if len(d.cache) >= d.cacheCap {
		victim := d.lruTail
		d.lruRemove(victim)
		delete(d.cache, victim.lba)
	}
	e := &cacheEnt{lba: lba, data: append([]byte(nil), data...)}
	d.cache[lba] = e
	d.lruPush(e)
}

// BlockSize implements extfs.BlockDev.
func (d *Disk) BlockSize() int { return d.k.Drv.BlockSize() }

// NumBlocks implements extfs.BlockDev.
func (d *Disk) NumBlocks() int64 { return d.k.Drv.CapacityBlocks() }

// ReadBlocks implements extfs.BlockDev: cached blocks cost a memory copy;
// misses are fetched in contiguous spans through ReadBytes, which bounces
// them (the guest filesystem's buffers are not DMA-mapped pages in this
// model), and inserted into the cache.
func (d *Disk) ReadBlocks(ctx *sim.Proc, lba int64, p []byte) error {
	bs := d.BlockSize()
	blocks := len(p) / bs
	for i := 0; i < blocks; {
		blk := lba + int64(i)
		if e, ok := d.cache[blk]; ok {
			d.CacheHits++
			d.cacheTouch(e)
			copy(p[i*bs:(i+1)*bs], e.data)
			d.k.memcpyCost(ctx, bs)
			i++
			continue
		}
		// Miss: read the maximal uncached span in one request.
		j := i + 1
		for j < blocks {
			if _, ok := d.cache[lba+int64(j)]; ok {
				break
			}
			j++
		}
		d.CacheMisses += int64(j - i)
		if err := d.k.ReadBytes(ctx, blk*int64(bs), p[i*bs:j*bs]); err != nil {
			return err
		}
		for k := i; k < j; k++ {
			d.cacheInsert(lba+int64(k), p[k*bs:(k+1)*bs])
		}
		i = j
	}
	return nil
}

// WriteBlocks implements extfs.BlockDev: write-through — the cache copy is
// refreshed and the blocks go to the device through WriteBytes.
func (d *Disk) WriteBlocks(ctx *sim.Proc, lba int64, p []byte) error {
	bs := d.BlockSize()
	for i := 0; i < len(p)/bs; i++ {
		d.cacheInsert(lba+int64(i), p[i*bs:(i+1)*bs])
	}
	return d.k.WriteBytes(ctx, lba*int64(bs), p)
}

// Flush implements extfs.BlockDev; the simulated media have no volatile
// cache, so ordering is already durable.
func (d *Disk) Flush(*sim.Proc) error { return nil }

// Mount formats or mounts an extent filesystem on the virtual disk.
func (k *Kernel) Mount(ctx *sim.Proc, format bool, fsParams extfs.Params) (*extfs.FS, error) {
	disk := NewDisk(k)
	fsParams.OpCost = k.P.FSOpCost
	if format {
		return extfs.Format(ctx, disk, fsParams)
	}
	return extfs.Mount(ctx, disk, k.P.FSOpCost)
}
