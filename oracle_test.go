package nesc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// The reference model the root tests hold data to: a version map per virtual
// disk, and the tenant I/O that writes through it and checks reads against
// it.

const soakBlock = 1024

// disk is the oracle for one virtual disk, copied from
// benchmarks/nescperf/oracle.go (that module keeps its own copy). Every block
// written carries a (disk, block, version) stamp pattern, so the expected
// content of any block is a function of one integer and the oracle is a
// version map rather than a copy of the disk. Version 0 is "never written":
// zeros. A snapshot or fork copies its parent's map and shares its version
// clock, so no two writes in one lineage carry the same stamp and a write
// that leaks from one side to the other cannot pass for the right one.
type disk struct {
	id    uint64
	ver   []uint32
	clock *uint32
}

func newDisk(id uint64, blocks int64) *disk {
	return &disk{id: id, ver: make([]uint32, blocks), clock: new(uint32)}
}

// fork is a snapshot, clone or fork of d: the same content, diverging from
// here.
func (d *disk) fork() *disk { return &disk{id: d.id, ver: slices.Clone(d.ver), clock: d.clock} }

const stampStep = 0x9E3779B97F4A7C15

// stampBase is word 0 of a block's pattern; word i adds i*stampStep. The low
// bit is forced so no stamped word is zero and a stamped block can never be
// mistaken for an unwritten one.
func (d *disk) stampBase(block int64, ver uint32) uint64 {
	x := d.id<<56 ^ uint64(block)<<24 ^ uint64(ver)
	x *= stampStep
	x ^= x >> 29
	return x | 1
}

func fillBlock(p []byte, w uint64) {
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], w)
		w += stampStep
	}
}

// stamp gives every block p covers at byte offset off a new version and
// fills p with the new patterns, just before the write is issued.
func (d *disk) stamp(p []byte, off int64) {
	for b := off / soakBlock; b < (off+int64(len(p)))/soakBlock; b++ {
		*d.clock++
		d.ver[b] = *d.clock
	}
	d.render(p, off)
}

// render fills p with what the map says the blocks at byte offset off hold.
func (d *disk) render(p []byte, off int64) {
	b := off / soakBlock
	for i := 0; i < len(p); i += soakBlock {
		if v := d.ver[b]; v == 0 {
			clear(p[i : i+soakBlock])
		} else {
			fillBlock(p[i:i+soakBlock], d.stampBase(b, v))
		}
		b++
	}
}

// verify reports whether p, read at byte offset off, holds exactly what the
// version map says was last written there.
func (d *disk) verify(p []byte, off int64) bool {
	want := make([]byte, len(p))
	d.render(want, off)
	return bytes.Equal(p, want)
}

// tenant is one virtual disk and the VMs that export it; base is the disk's
// byte offset on them (a raw tenant's region of the medium).
type tenant struct {
	disk *disk
	vms  []*VM
	base int64
}

// write stamps n blocks at blk with new versions and writes them through vm.
func (tn *tenant) write(c *Ctx, vm *VM, blk, n int64) error {
	p := make([]byte, n*soakBlock)
	tn.disk.stamp(p, blk*soakBlock)
	return tn.put(c, vm, p, blk)
}

// put writes p at blk until the write sticks: a rewrite of the same stamps is
// idempotent, so resubmissions and repair rewrites are harmless.
func (tn *tenant) put(c *Ctx, vm *VM, p []byte, blk int64) error {
	if err := retry(func() error { return vm.WriteAt(c, p, tn.base+blk*soakBlock) }); err != nil {
		return fmt.Errorf("%s: write at block %d never stuck: %w", vm.Name(), blk, err)
	}
	return nil
}

// retry runs op until it succeeds, at most eight times. op is idempotent or
// undoes itself on failure: under the loud group a guest's request or a host
// operation's can exhaust its own retries.
func retry(op func() error) error {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}

// check reads n blocks at blk through vm and holds them to the oracle. A read
// error — a transient fault, a latent sector, a reset — is answered by
// rewriting what the oracle says is there (a scrub repair) and reading again;
// a mismatch is a silent escape and fails at once.
func (tn *tenant) check(c *Ctx, vm *VM, blk, n int64) error {
	got, want := make([]byte, n*soakBlock), make([]byte, n*soakBlock)
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if err = vm.ReadAt(c, got, tn.base+blk*soakBlock); err == nil {
			if !tn.disk.verify(got, blk*soakBlock) {
				return fmt.Errorf("%s: blocks %d+%d differ from the oracle", vm.Name(), blk, n)
			}
			return nil
		}
		tn.disk.render(want, blk*soakBlock)
		if err := tn.put(c, vm, want, blk); err != nil {
			return err
		}
	}
	return fmt.Errorf("%s: read at block %d never recovered: %w", vm.Name(), blk, err)
}

// checkAll checks the whole disk through vm, a stripe at a time.
func (tn *tenant) checkAll(c *Ctx, vm *VM) error {
	for blk := int64(0); blk < int64(len(tn.disk.ver)); blk += stripe {
		if err := tn.check(c, vm, blk, stripe); err != nil {
			return err
		}
	}
	return nil
}
