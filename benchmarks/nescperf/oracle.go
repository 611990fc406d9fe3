package main

import "encoding/binary"

// blockSize is the device block size of every simulated platform.
const blockSize = 1024

// disk is the oracle for one virtual disk. Every block the benchmark writes
// carries a (disk, block, version) stamp pattern, so the expected content of
// any block is a function of one integer and the oracle is a version map
// rather than a copy of the disk. Version 0 is "never written": zeros.
type disk struct {
	id uint64
	// dup > 1 makes each run of dup adjacent blocks carry one stamp: the
	// golden image repeats content so the content-addressed tier has
	// something to deduplicate.
	dup int64
	ver []uint32
}

func newDisk(id uint64, blocks int64) *disk {
	return &disk{id: id, ver: make([]uint32, blocks)}
}

const stampStep = 0x9E3779B97F4A7C15

// stampBase is word 0 of a block's pattern; word i adds i*stampStep. The low
// bit is forced so no stamped word is zero and a stamped block can never be
// mistaken for an unwritten one.
func (d *disk) stampBase(block int64, ver uint32) uint64 {
	if d.dup > 1 {
		block /= d.dup
	}
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

func checkBlock(p []byte, w uint64) bool {
	for i := 0; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != w {
			return false
		}
		w += stampStep
	}
	return true
}

func allZero(p []byte) bool {
	for i := 0; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != 0 {
			return false
		}
	}
	return true
}

// stamp bumps the version of every block p covers at byte offset off and
// fills p with the new patterns. It is called just before the write is
// issued; no other client reads those blocks meanwhile because clients own
// disjoint regions.
func (d *disk) stamp(p []byte, off int64) {
	b := off / blockSize
	for i := 0; i < len(p); i += blockSize {
		d.ver[b]++
		fillBlock(p[i:i+blockSize], d.stampBase(b, d.ver[b]))
		b++
	}
}

// verify reports whether p, read at byte offset off, holds exactly what the
// version map says was last written there.
func (d *disk) verify(p []byte, off int64) bool {
	b := off / blockSize
	for i := 0; i < len(p); i += blockSize {
		blk := p[i : i+blockSize]
		if v := d.ver[b]; v == 0 {
			if !allZero(blk) {
				return false
			}
		} else if !checkBlock(blk, d.stampBase(b, v)) {
			return false
		}
		b++
	}
	return true
}
