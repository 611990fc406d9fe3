package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"nesc/internal/sim"
)

// Exhaustive journal crash-point sweep: record every block write one
// mutating operation issues — journal descriptor, each image block, the
// commit record, every checkpoint and direct data write — and for every
// prefix of that sequence rebuild the device as if power died right there,
// remount (replaying the journal), and assert the filesystem invariants
// hold. A committed transaction must replay fully; an uncommitted one must
// vanish fully.

// recWrite is one recorded block write.
type recWrite struct {
	lba  int64
	data []byte
}

// recordingDev wraps a BlockDev and records every write, split per block so
// the sweep can truncate at every block boundary a real power cut can.
type recordingDev struct {
	inner  *MemDev
	writes []recWrite
}

func (d *recordingDev) BlockSize() int        { return d.inner.BlockSize() }
func (d *recordingDev) NumBlocks() int64      { return d.inner.NumBlocks() }
func (d *recordingDev) Flush(*sim.Proc) error { return nil }

func (d *recordingDev) ReadBlocks(ctx *sim.Proc, lba int64, p []byte) error {
	return d.inner.ReadBlocks(ctx, lba, p)
}

func (d *recordingDev) WriteBlocks(ctx *sim.Proc, lba int64, p []byte) error {
	bs := d.BlockSize()
	for off := 0; off < len(p); off += bs {
		d.writes = append(d.writes, recWrite{lba: lba + int64(off/bs), data: append([]byte(nil), p[off:off+bs]...)})
	}
	return d.inner.WriteBlocks(ctx, lba, p)
}

// snapshot copies the device's full image.
func snapshot(d *MemDev) []byte {
	img := make([]byte, d.S.NumBlocks()*int64(d.S.BlockSize()))
	if err := d.S.ReadBlocks(0, img); err != nil {
		panic(err)
	}
	return img
}

// devFrom builds a fresh device holding image img.
func devFrom(bs int, nb int64, img []byte) *MemDev {
	d := NewMemDev(bs, nb)
	if err := d.S.WriteBlocks(0, img); err != nil {
		panic(err)
	}
	return d
}

const (
	crashBS = 1024
	crashNB = 4096
)

// recordOp formats a filesystem, runs setup, snapshots the (consistent)
// disk, then runs op on a recording device and returns the pre-image plus
// the ordered writes op issued.
func recordOp(t *testing.T, mode JournalMode, setup, op func(t *testing.T, fs *FS)) (pre []byte, writes []recWrite) {
	t.Helper()
	dev0 := NewMemDev(crashBS, crashNB)
	fs0, err := Format(nil, dev0, Params{InodeCount: 64, JournalBlocks: 64, Mode: mode})
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	setup(t, fs0)
	pre = snapshot(dev0)

	rec := &recordingDev{inner: devFrom(crashBS, crashNB, pre)}
	fs1, err := Mount(nil, rec, 0)
	if err != nil {
		t.Fatalf("mount for recorded op: %v", err)
	}
	op(t, fs1)
	return pre, rec.writes
}

// sweep replays every write-prefix of a recorded operation onto the
// pre-image and hands the remounted filesystem to check.
func sweep(t *testing.T, pre []byte, writes []recWrite, check func(t *testing.T, point int, fs *FS)) {
	t.Helper()
	for k := 0; k <= len(writes); k++ {
		dev := devFrom(crashBS, crashNB, pre)
		for _, w := range writes[:k] {
			if err := dev.S.WriteBlocks(w.lba, w.data); err != nil {
				t.Fatalf("crash point %d: apply write: %v", k, err)
			}
		}
		fs, err := Mount(nil, dev, 0)
		if err != nil {
			t.Fatalf("crash point %d/%d: remount: %v", k, len(writes), err)
		}
		if err := fs.Check(nil); err != nil {
			t.Fatalf("crash point %d/%d: fsck: %v", k, len(writes), err)
		}
		check(t, k, fs)
	}
}

func pattern(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func readAll(t *testing.T, fs *FS, path string, n int) []byte {
	t.Helper()
	f, err := fs.Open(nil, path, 0, PermRead)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	got := make([]byte, n)
	if _, err := f.ReadAt(nil, got, 0); err != nil && err != io.EOF {
		t.Fatalf("read %s: %v", path, err)
	}
	return got
}

// TestJournalCrashSweepOverwrite overwrites an existing file's blocks and
// sweeps every crash point. In full-data journaling the content must be
// all-old or all-new at every point; in metadata journaling data blocks
// bypass the journal, so only the structural invariants (fsck, unchanged
// size) are promised.
func TestJournalCrashSweepOverwrite(t *testing.T) {
	const fileBytes = 4 * crashBS
	oldData := pattern(0xAA, fileBytes)
	newData := pattern(0x55, fileBytes)
	for _, mode := range []JournalMode{JournalMetadata, JournalFull} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			pre, writes := recordOp(t, mode,
				func(t *testing.T, fs *FS) {
					f, err := fs.Create(nil, "/f", 0, 0o644)
					if err != nil {
						t.Fatalf("create: %v", err)
					}
					if _, err := f.WriteAt(nil, oldData, 0); err != nil {
						t.Fatalf("seed write: %v", err)
					}
				},
				func(t *testing.T, fs *FS) {
					f, err := fs.Open(nil, "/f", 0, PermRead|PermWrite)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					if _, err := f.WriteAt(nil, newData, 0); err != nil {
						t.Fatalf("overwrite: %v", err)
					}
				})
			if len(writes) == 0 {
				t.Fatal("recorded operation issued no writes")
			}
			sweep(t, pre, writes, func(t *testing.T, point int, fs *FS) {
				got := readAll(t, fs, "/f", fileBytes)
				if mode == JournalFull {
					if !bytes.Equal(got, oldData) && !bytes.Equal(got, newData) {
						t.Fatalf("crash point %d: torn content in full-data mode", point)
					}
					return
				}
				// Metadata mode: every block still must be fully old or fully
				// new — writes land in whole blocks, never partial ones.
				for b := 0; b < fileBytes/crashBS; b++ {
					blk := got[b*crashBS : (b+1)*crashBS]
					if !bytes.Equal(blk, oldData[:crashBS]) && !bytes.Equal(blk, newData[:crashBS]) {
						t.Fatalf("crash point %d: block %d torn mid-block", point, b)
					}
				}
			})
		})
	}
}

// TestJournalCrashSweepAppend sweeps an allocating append: at every crash
// point the file is either untouched (size 0) or fully extended, and no
// data block may leak (fsck inside sweep enforces that).
func TestJournalCrashSweepAppend(t *testing.T) {
	const fileBytes = 3 * crashBS
	data := pattern(0x3C, fileBytes)
	for _, mode := range []JournalMode{JournalMetadata, JournalFull} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			pre, writes := recordOp(t, mode,
				func(t *testing.T, fs *FS) {
					if _, err := fs.Create(nil, "/a", 0, 0o644); err != nil {
						t.Fatalf("create: %v", err)
					}
				},
				func(t *testing.T, fs *FS) {
					f, err := fs.Open(nil, "/a", 0, PermRead|PermWrite)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					if _, err := f.WriteAt(nil, data, 0); err != nil {
						t.Fatalf("append: %v", err)
					}
				})
			sweep(t, pre, writes, func(t *testing.T, point int, fs *FS) {
				f, err := fs.Open(nil, "/a", 0, PermRead)
				if err != nil {
					t.Fatalf("crash point %d: open: %v", point, err)
				}
				switch sz := f.Size(); sz {
				case 0:
					// Transaction discarded: the append never happened.
				case uint64(fileBytes):
					if mode == JournalFull {
						if got := readAll(t, fs, "/a", fileBytes); !bytes.Equal(got, data) {
							t.Fatalf("crash point %d: size committed but content wrong", point)
						}
					}
				default:
					t.Fatalf("crash point %d: size %d is neither 0 nor %d (partial metadata replay)", point, sz, fileBytes)
				}
			})
		})
	}
}

// TestJournalCrashSweepSnapshot sweeps a snapshot: at every crash point the
// snapshot either exists in full — sharing verified by fsck's refcount
// cross-check — or not at all, and the first snapshot's lazily allocated
// refcount table never leaks.
func TestJournalCrashSweepSnapshot(t *testing.T) {
	const fileBytes = 4 * crashBS
	data := pattern(0x5A, fileBytes)
	for _, mode := range []JournalMode{JournalMetadata, JournalFull} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			pre, writes := recordOp(t, mode,
				func(t *testing.T, fs *FS) {
					f, err := fs.Create(nil, "/src", 0, 0o644)
					if err != nil {
						t.Fatalf("create: %v", err)
					}
					if _, err := f.WriteAt(nil, data, 0); err != nil {
						t.Fatalf("seed write: %v", err)
					}
				},
				func(t *testing.T, fs *FS) {
					if err := fs.Snapshot(nil, "/src", "/src.snap", 0); err != nil {
						t.Fatalf("snapshot: %v", err)
					}
				})
			sweep(t, pre, writes, func(t *testing.T, point int, fs *FS) {
				if got := readAll(t, fs, "/src", fileBytes); !bytes.Equal(got, data) {
					t.Fatalf("crash point %d: source data changed", point)
				}
				_, err := fs.Stat(nil, "/src.snap", 0)
				switch {
				case err == nil:
					if got := readAll(t, fs, "/src.snap", fileBytes); !bytes.Equal(got, data) {
						t.Fatalf("crash point %d: snapshot exists but content wrong", point)
					}
					if fs.SharedBlocks() == 0 {
						t.Fatalf("crash point %d: snapshot exists with no shared refcounts", point)
					}
				case errors.Is(err, ErrNotExist):
					if fs.SharedBlocks() != 0 {
						t.Fatalf("crash point %d: no snapshot but %d refcounted blocks", point, fs.SharedBlocks())
					}
				default:
					t.Fatalf("crash point %d: stat: %v", point, err)
				}
			})
		})
	}
}

// TestJournalCrashSweepCowBreak sweeps a write that breaks snapshot sharing
// (the CoW copy path). A power cut mid-break must never leak a block,
// double-free one, or corrupt the snapshot — fsck's refcount cross-check
// inside sweep enforces the first two, the content checks the third.
func TestJournalCrashSweepCowBreak(t *testing.T) {
	const fileBytes = 4 * crashBS
	oldData := pattern(0xAA, fileBytes)
	newBlock := pattern(0x55, crashBS)
	for _, mode := range []JournalMode{JournalMetadata, JournalFull} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			pre, writes := recordOp(t, mode,
				func(t *testing.T, fs *FS) {
					f, err := fs.Create(nil, "/c", 0, 0o644)
					if err != nil {
						t.Fatalf("create: %v", err)
					}
					if _, err := f.WriteAt(nil, oldData, 0); err != nil {
						t.Fatalf("seed write: %v", err)
					}
					if err := fs.Snapshot(nil, "/c", "/c.snap", 0); err != nil {
						t.Fatalf("snapshot: %v", err)
					}
				},
				func(t *testing.T, fs *FS) {
					f, err := fs.Open(nil, "/c", 0, PermRead|PermWrite)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					// Overwrite one shared block: copy-aside + extent splice.
					if _, err := f.WriteAt(nil, newBlock, crashBS); err != nil {
						t.Fatalf("cow write: %v", err)
					}
				})
			if len(writes) == 0 {
				t.Fatal("recorded CoW break issued no writes")
			}
			sweep(t, pre, writes, func(t *testing.T, point int, fs *FS) {
				// The snapshot must read the pre-break image at every point.
				if got := readAll(t, fs, "/c.snap", fileBytes); !bytes.Equal(got, oldData) {
					t.Fatalf("crash point %d: CoW break leaked into snapshot", point)
				}
				// The parent's written block is all-old or all-new.
				got := readAll(t, fs, "/c", fileBytes)
				blk := got[crashBS : 2*crashBS]
				if !bytes.Equal(blk, oldData[:crashBS]) && !bytes.Equal(blk, newBlock) {
					t.Fatalf("crash point %d: parent block torn by CoW break", point)
				}
				// The untouched blocks stay shared and intact.
				rest := append(append([]byte(nil), got[:crashBS]...), got[2*crashBS:]...)
				want := append(append([]byte(nil), oldData[:crashBS]...), oldData[2*crashBS:]...)
				if !bytes.Equal(rest, want) {
					t.Fatalf("crash point %d: unwritten parent blocks changed", point)
				}
			})
		})
	}
}

// TestJournalCrashSweepCreate sweeps a file creation (pure metadata): the
// file must exist fully linked or not at all at every crash point.
func TestJournalCrashSweepCreate(t *testing.T) {
	for _, mode := range []JournalMode{JournalMetadata, JournalFull} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			pre, writes := recordOp(t, mode,
				func(t *testing.T, fs *FS) {
					if err := fs.Mkdir(nil, "/dir", 0, 0o755); err != nil {
						t.Fatalf("mkdir: %v", err)
					}
				},
				func(t *testing.T, fs *FS) {
					if _, err := fs.Create(nil, "/dir/new", 0, 0o600); err != nil {
						t.Fatalf("create: %v", err)
					}
				})
			sweep(t, pre, writes, func(t *testing.T, point int, fs *FS) {
				// fsck (in sweep) has already validated link counts and
				// orphans; existence itself may be either way.
				_, err := fs.Open(nil, "/dir/new", 0, PermRead)
				if err != nil && !errors.Is(err, ErrNotExist) {
					t.Fatalf("crash point %d: open: %v", point, err)
				}
			})
		})
	}
}

// TestCleanRemountIsANoop: mounting a device nothing crashed on must change
// nothing. A seeded create/write/truncate/remove mix runs on a live
// filesystem; after every operation a *copy* of the device is mounted — so
// the live filesystem never sees a replay — and must pass fsck and agree with
// the live one on every file's size and extent map, and on the bytes of the
// file just touched. Small journals wrap often, which is what used to leave a
// stale record from an earlier lap for the mount to redo over newer state.
func TestCleanRemountIsANoop(t *testing.T) {
	const (
		nb       = 1024
		files    = 20
		maxBytes = 24 * crashBS
	)
	steps := 1200
	if testing.Short() {
		steps = 400
	}
	for _, journal := range []int64{8, 10, 16, 32, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("journal%d/seed%d", journal, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				dev := NewMemDev(crashBS, nb)
				live, err := Format(nil, dev, Params{InodeCount: 64, JournalBlocks: journal, Mode: JournalMetadata})
				if err != nil {
					t.Fatal(err)
				}
				copied, img := NewMemDev(crashBS, nb), make([]byte, nb*crashBS)
				open := map[string]*File{}
				for step := 0; step < steps; step++ {
					name := fmt.Sprintf("/f%d", rng.Intn(files))
					f, op := open[name], rng.Intn(10)
					switch {
					case f == nil:
						if f, err = live.Create(nil, name, 0, 0o644); err == nil {
							open[name] = f
						}
					case op < 6:
						chunk := make([]byte, 1+rng.Intn(4*crashBS))
						rng.Read(chunk)
						_, err = f.WriteAt(nil, chunk, int64(rng.Intn(maxBytes-len(chunk))))
					case op < 8:
						err = f.Truncate(nil, uint64(rng.Intn(maxBytes)))
					default:
						err = live.Remove(nil, name, 0)
						delete(open, name)
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if err := live.Check(nil); err != nil {
						t.Fatalf("step %d: live fsck: %v", step, err)
					}
					if err := dev.S.ReadBlocks(0, img); err != nil {
						t.Fatal(err)
					}
					if err := copied.S.WriteBlocks(0, img); err != nil {
						t.Fatal(err)
					}
					again, err := Mount(nil, copied, 0)
					if err != nil {
						t.Fatalf("step %d: mount of a copy: %v", step, err)
					}
					if err := again.Check(nil); err != nil {
						t.Fatalf("step %d: fsck after a clean remount: %v", step, err)
					}
					for path := range open {
						want, size, err := live.Runs(nil, path)
						if err != nil {
							t.Fatal(err)
						}
						got, gotSize, err := again.Runs(nil, path)
						if err != nil {
							t.Fatalf("step %d: %s after a clean remount: %v", step, path, err)
						}
						if gotSize != size || !slices.Equal(got, want) {
							t.Fatalf("step %d: %s is %d bytes in %v after a clean remount, live %d bytes in %v", step, path, gotSize, got, size, want)
						}
					}
					if f := open[name]; f != nil {
						if n := int(f.Size()); !bytes.Equal(readAll(t, again, name, n), readAll(t, live, name, n)) {
							t.Fatalf("step %d: %s reads differently after a clean remount", step, name)
						}
					}
				}
			})
		}
	}
}
