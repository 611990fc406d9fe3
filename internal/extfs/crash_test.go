package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"nesc/internal/extent"
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
// the sweep can truncate at every block boundary a real power cut can. A write
// under a process takes a microsecond of virtual time.
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
	if ctx != nil {
		ctx.Sleep(sim.Microsecond)
	}
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

// TestJournalCrashSweepLeafSplit sweeps an insert that splits an overflow
// leaf: a file of 105 one-block extents is packed into two full leaves, and a
// one-block allocation among the inline extents pushes an entry into leaf 0,
// which splits in two. At every crash point the file's extent list is the one
// before the insert or the one after it, never a chain in between.
func TestJournalCrashSweepLeafSplit(t *testing.T) {
	for _, mode := range []JournalMode{JournalMetadata, JournalFull} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			var before, after []extent.Run
			pre, writes := recordOp(t, mode,
				func(t *testing.T, fs *FS) {
					if err := fragment(t, fs, "/s", 105).Migrate(nil); err != nil {
						t.Fatalf("migrate: %v", err)
					}
				},
				func(t *testing.T, fs *FS) {
					f := openRW(t, fs, "/s")
					leaves := len(fs.inodes[f.ino].overflow)
					before = slices.Clone(f.Extents())
					if err := f.Allocate(nil, 1, 1); err != nil {
						t.Fatalf("insert: %v", err)
					}
					after = slices.Clone(f.Extents())
					if got := len(fs.inodes[f.ino].overflow); got != leaves+1 {
						t.Fatalf("the insert left %d leaves of %d; it should split one", got, leaves)
					}
				})
			sweep(t, pre, writes, func(t *testing.T, point int, fs *FS) {
				got := extentsOf(t, fs, "/s")
				if !slices.Equal(got, before) && !slices.Equal(got, after) {
					t.Fatalf("crash point %d: %d extents, neither the %d before the split nor the %d after", point, len(got), len(before), len(after))
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

// TestJournalCrashSweepBackgroundCheckpoint sweeps a checkpoint that runs
// after its operation returned. Under a process, an Allocate of 8 blocks
// returns once its record is down; a Create issued at once waits on the lock
// while the Allocate's checkpoint writes home, then commits its own record. At
// every crash point — inside either record, inside the checkpoint, with the
// Create waiting — the remount passes fsck, maps all 8 blocks or none, and
// holds every operation acknowledged before the cut.
func TestJournalCrashSweepBackgroundCheckpoint(t *testing.T) {
	for _, mode := range []JournalMode{JournalMetadata, JournalFull} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			var allocAcked, createAcked int // writes recorded when each returned
			pre, writes := recordOp(t, mode,
				func(t *testing.T, fs *FS) {
					if _, err := fs.Create(nil, "/img", 0, 0o600); err != nil {
						t.Fatalf("create: %v", err)
					}
				},
				func(t *testing.T, fs *FS) {
					rec, f := fs.dev.(*recordingDev), openRW(t, fs, "/img")
					eng := sim.NewEngine()
					eng.Go("ops", func(p *sim.Proc) {
						if err := f.Allocate(p, 0, 8); err != nil {
							t.Errorf("allocate: %v", err)
						}
						allocAcked = len(rec.writes)
						if _, err := fs.Create(p, "/b", 0, 0o600); err != nil {
							t.Errorf("create: %v", err)
						}
						createAcked = len(rec.writes)
					})
					eng.Run()
					last := uint64(rec.writes[allocAcked-1].lba)
					if last < fs.sb.journalStart || last >= fs.sb.dataStart || createAcked-allocAcked < 3 {
						t.Fatalf("the Allocate returned after write %d (block %d) of %d, the Create after %d: want its record last, its checkpoint after",
							allocAcked, last, len(rec.writes), createAcked)
					}
				})
			sweep(t, pre, writes, func(t *testing.T, point int, fs *FS) {
				if mapped := mappedBlocks(openRW(t, fs, "/img"), 8); mapped != 8 && (mapped != 0 || point >= allocAcked) {
					t.Fatalf("crash point %d (Allocate acknowledged at %d): %d of its 8 blocks mapped", point, allocAcked, mapped)
				}
				if _, err := fs.Open(nil, "/b", 0, PermRead); err != nil && (point >= createAcked || !errors.Is(err, ErrNotExist)) {
					t.Fatalf("crash point %d (Create acknowledged at %d): %v", point, createAcked, err)
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
// The fragmented rows run the same check over the overflow chain's own
// mutations (cleanRemountFragmented).
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
				remount := remountChecker(dev)
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
					remount(t, step, live, open, name)
				}
			})
		}
	}
	for _, journal := range []int64{16, 64} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("fragmented/journal%d/seed%d", journal, seed), func(t *testing.T) {
				t.Parallel()
				cleanRemountFragmented(t, journal, seed)
			})
		}
	}
}

// remountChecker returns the check TestCleanRemountIsANoop runs after every
// step: copy dev, mount the copy, and fail unless both filesystems pass fsck
// and agree on every open file's size and extent map, and on the bytes of the
// file just touched.
func remountChecker(dev *MemDev) func(t *testing.T, step int, live *FS, open map[string]*File, touched string) {
	nb := dev.NumBlocks()
	copied, img := NewMemDev(crashBS, nb), make([]byte, nb*crashBS)
	return func(t *testing.T, step int, live *FS, open map[string]*File, touched string) {
		t.Helper()
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
			if err := sameRuns(live, again, path); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if f := open[touched]; f != nil {
			if n := int(f.Size()); !bytes.Equal(readAll(t, again, touched, n), readAll(t, live, touched, n)) {
				t.Fatalf("step %d: %s reads differently after a clean remount", step, touched)
			}
		}
	}
}

// cleanRemountFragmented is TestCleanRemountIsANoop over files of at least
// three overflow leaves, and over every way the chain changes. Three files
// are built, one after the other, of one-block extents at even logical
// blocks, with a spacer file's block between each two physical ones; a
// snapshot repacks the first, and removing the spacer leaves most holes a
// free block that bridges their two neighbours. Filling a hole through that
// block merges the neighbours and takes an entry out of a leaf: two drains
// empty leaves (leaf 0, and a last leaf whose predecessor must be rewritten).
// The seeded mix then bridges, allocates elsewhere (inserts that split
// leaves), breaks the snapshot's sharing (splices), truncates (repacks) and
// snapshots again. The row fails unless it saw splits, frees and breaks.
func cleanRemountFragmented(t *testing.T, journal, seed int64) {
	const nb = 4096
	steps := 300 // after the 700-odd that build the files
	if testing.Short() {
		steps = 100
	}
	rng := rand.New(rand.NewSource(seed))
	dev := NewMemDev(crashBS, nb)
	live, err := Format(nil, dev, Params{InodeCount: 64, JournalBlocks: journal, Mode: JournalMetadata})
	if err != nil {
		t.Fatal(err)
	}
	remount := remountChecker(dev)
	names := []string{"/a", "/b", "/c"}
	open := map[string]*File{}
	step := 0
	do := func(touched string, op func() error) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		remount(t, step, live, open, touched)
		step++
	}
	create := func(name string) {
		do(name, func() (err error) {
			open[name], err = live.Create(nil, name, 0, 0o644)
			return err
		})
	}
	for _, name := range append(names, "/spacer") {
		create(name)
	}
	spacer := 0
	for _, name := range names {
		extents := 120
		if name == "/c" {
			extents = inlineExtents + 2*50 + 1 // repacks into leaves of 50, 50 and 1
		}
		for i := 0; i < extents; i++ {
			do(name, func() error { return open[name].Allocate(nil, uint64(2*i), 1) })
			do("/spacer", func() error { return open["/spacer"].Allocate(nil, uint64(2*spacer), 1) })
			spacer++
		}
	}
	leaves := func() (n int) {
		for _, name := range names {
			n += len(live.inodes[open[name].ino].overflow)
		}
		return n
	}
	for _, name := range names {
		if n := len(live.inodes[open[name].ino].overflow); n < 3 {
			t.Fatalf("%s spills into %d leaves; the row wants at least 3", name, n)
		}
	}
	snapshot := func(src, dst string) {
		do(dst, func() error { return live.Snapshot(nil, src, dst, 0) })
		open[dst], err = live.Open(nil, dst, 0, PermRead)
		if err != nil {
			t.Fatal(err)
		}
	}
	snapshot("/a", "/a.snap")
	do("/spacer", func() error {
		delete(open, "/spacer")
		return live.Remove(nil, "/spacer", 0)
	})

	// bridgeable reports whether the hole before extent i of in can be filled
	// through the free block(s) between its neighbours, so that they merge.
	bridgeable := func(in *inode, i int) bool {
		p, s := in.extents[i-1], in.extents[i]
		gap := s.Logical - p.End()
		return gap > 0 && p.Flags == 0 && s.Flags == 0 && s.Physical-(p.Physical+p.Count) == gap && live.freeSpan(p.Physical+p.Count, gap)
	}
	// bridge fills the first bridgeable hole after extent from.
	bridge := func(name string, from int) bool {
		in := &live.inodes[open[name].ino]
		for i := from + 1; i < len(in.extents); i++ {
			if !bridgeable(in, i) {
				continue
			}
			p := in.extents[i-1]
			hint := live.allocHint
			live.allocHint = p.Physical + p.Count
			do(name, func() error { return open[name].Allocate(nil, p.End(), in.extents[i].Logical-p.End()) })
			live.allocHint = hint
			return true
		}
		return false
	}
	// Drain /b from its first extent: the merges empty leaf 0 again and
	// again. Then repack /c (a truncate to its own size) and merge its last
	// entry into its neighbour: the emptied last leaf goes, and its
	// predecessor is rewritten to end the chain.
	var splits, frees, bridges int
	for before := leaves(); bridge("/b", 0); before = leaves() {
		bridges++
		frees += max(before-leaves(), 0)
	}
	if frees == 0 {
		t.Fatal("draining /b from its first extent freed no leaf")
	}
	do("/c", func() error { return open["/c"].Truncate(nil, open["/c"].Size()) })
	c := &live.inodes[open["/c"].ino]
	if n := c.overflow[len(c.overflow)-1].n; len(c.overflow) != 3 || n != 1 {
		t.Fatalf("/c repacked into %d leaves, the last of %d entries; want 3 and 1", len(c.overflow), n)
	}
	if !bridge("/c", len(c.extents)-2) || len(c.overflow) != 2 {
		t.Fatalf("merging /c's last extent left %d leaves; want 2", len(c.overflow))
	}
	bridges++
	frees++
	breaksBefore := live.CowBreaks
	for n := 0; n < steps; n++ {
		name := names[rng.Intn(len(names))]
		in := &live.inodes[open[name].ino]
		before := leaves()
		switch op := rng.Intn(20); {
		case op < 12:
			if len(in.extents) > 1 && bridge(name, rng.Intn(len(in.extents)-1)) {
				bridges++
			}
		case op < 14:
			do(name, func() error { return open[name].Allocate(nil, uint64(rng.Intn(320)), 1) })
		case op < 17:
			do("/a", func() error { return open["/a"].BreakShare(nil, uint64(rng.Intn(240)), 1+uint64(rng.Intn(4))) })
		case op < 18:
			size := open[name].Size()
			do(name, func() error { return open[name].Truncate(nil, size-size/16) })
			continue
		case op < 19:
			chunk := make([]byte, 1+rng.Intn(3*crashBS))
			rng.Read(chunk)
			do(name, func() error {
				_, err := open[name].WriteAt(nil, chunk, int64(rng.Intn(240*crashBS)))
				return err
			})
		default:
			dst := name + ".snap"
			if open[dst] != nil {
				do(dst, func() error {
					delete(open, dst)
					return live.Remove(nil, dst, 0)
				})
				continue
			}
			snapshot(name, dst)
			continue
		}
		switch after := leaves(); {
		case after > before:
			splits++
		case after < before:
			frees++
		}
	}
	t.Logf("%d steps: %d bridging fills, %d leaf splits, %d leaf frees, %d CoW breaks", step, bridges, splits, frees, live.CowBreaks-breaksBefore)
	if splits == 0 || live.CowBreaks == breaksBefore {
		t.Fatalf("the mix split %d leaves and broke %d shared extents; it should do both", splits, live.CowBreaks-breaksBefore)
	}
}

// freeSpan reports whether blocks [start, start+n) are all free.
func (fs *FS) freeSpan(start, n uint64) bool {
	for b := start; b < start+n; b++ {
		if b >= fs.sb.numBlocks || fs.bitmapGet(b) {
			return false
		}
	}
	return true
}
