package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nesc/internal/sim"
)

// groupOps runs ops as concurrent processes while a Stat holds the lock for
// fs's op cost, so the first op leads a group and the others join it, and
// returns each op's error.
func groupOps(fs *FS, ops ...func(p *sim.Proc) error) []error {
	eng := sim.NewEngine()
	errs := make([]error, len(ops))
	eng.Go("holder", func(p *sim.Proc) { _, _ = fs.Stat(p, "/", 0) })
	for i, op := range ops {
		eng.Go("member", func(p *sim.Proc) { errs[i] = op(p) })
	}
	eng.Run()
	eng.Shutdown()
	return errs
}

// records counts the journal records among a recording device's writes.
func records(fs *FS, writes []recWrite) int {
	n := 0
	for _, w := range writes {
		if uint64(w.lba) >= fs.sb.journalStart && uint64(w.lba) < fs.sb.dataStart && bytes.HasPrefix(w.data, []byte("JDES")) {
			n++
		}
	}
	return n
}

// groupFS formats a recording filesystem with an op cost and creates files.
func groupFS(t *testing.T, files ...string) (*FS, *recordingDev) {
	t.Helper()
	dev := &recordingDev{inner: NewMemDev(crashBS, crashNB)}
	fs, err := Format(nil, dev, Params{InodeCount: 64, JournalBlocks: 64, Mode: JournalMetadata, OpCost: 2 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, err := fs.Create(nil, f, 0, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dev.writes = nil
	return fs, dev
}

// remount mounts a copy of what dev holds and checks it.
func remount(t *testing.T, dev *recordingDev) *FS {
	t.Helper()
	fs, err := Mount(nil, devFrom(crashBS, crashNB, snapshot(dev.inner)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatalf("fsck after remount: %v", err)
	}
	return fs
}

// Three Fills that reach the filesystem while its lock is busy commit as one
// group: each pays its op cost and counts one operation, and together they
// make one journal record and one checkpoint, which writes each home block
// once.
func TestConcurrentFillsShareOneCommit(t *testing.T) {
	fs, dev := groupFS(t, "/a", "/b", "/c")
	var fills []func(p *sim.Proc) error
	for i, name := range []string{"/a", "/b", "/c"} {
		f := openRW(t, fs, name)
		fills = append(fills, func(p *sim.Proc) error {
			_, err := f.Fill(p, 0, 4, [][]byte{pattern(byte(0xA0+i), crashBS)})
			return err
		})
	}
	ops := fs.Ops
	for i, err := range groupOps(fs, fills...) {
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if n := fs.Ops - ops; n != 4 {
		t.Errorf("the Stat and three Fills counted %d operations, want 4", n)
	}
	if n := records(fs, dev.writes); n != 1 {
		t.Errorf("three concurrent Fills made %d journal records, want 1", n)
	}
	homes := map[int64]int{}
	for _, w := range dev.writes {
		if uint64(w.lba) < fs.sb.journalStart {
			if homes[w.lba]++; homes[w.lba] > 1 {
				t.Errorf("metadata block %d went home twice: more than one checkpoint", w.lba)
			}
		}
	}
	again := remount(t, dev)
	for i, name := range []string{"/a", "/b", "/c"} {
		if got := readAll(t, again, name, crashBS); !bytes.Equal(got, pattern(byte(0xA0+i), crashBS)) {
			t.Errorf("%s lost its fill", name)
		}
	}
}

// Two Creates in one directory in one group both survive a remount: the
// second reads the directory block the first buffered in the open
// transaction, not the stale one on the device, so it takes the next slot.
func TestConcurrentCreatesInOneDirectorySurvive(t *testing.T) {
	fs, dev := groupFS(t)
	if err := fs.Mkdir(nil, "/d", 0, 0o755); err != nil {
		t.Fatal(err)
	}
	dev.writes = nil
	create := func(path string) func(p *sim.Proc) error {
		return func(p *sim.Proc) error { _, err := fs.Create(p, path, 0, 0o644); return err }
	}
	for i, err := range groupOps(fs, create("/d/x"), create("/d/y")) {
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if n := records(fs, dev.writes); n != 1 {
		t.Errorf("two concurrent Creates made %d journal records, want 1", n)
	}
	again := remount(t, dev)
	for _, path := range []string{"/d/x", "/d/y"} {
		if _, err := again.Stat(nil, path, 0); err != nil {
			t.Errorf("%s after remount: %v", path, err)
		}
	}
}

// A member whose body fails gets its own error and fails no other: the middle
// of three Allocates holds a read-only handle, and the other two commit in one
// record.
func TestAFailedGroupMemberFailsAlone(t *testing.T) {
	fs, dev := groupFS(t, "/a", "/b", "/c")
	ro, err := fs.Open(nil, "/b", 0, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	files := []*File{openRW(t, fs, "/a"), ro, openRW(t, fs, "/c")}
	var allocs []func(p *sim.Proc) error
	for _, f := range files {
		allocs = append(allocs, func(p *sim.Proc) error { return f.Allocate(p, 0, 4) })
	}
	errs := groupOps(fs, allocs...)
	if errs[0] != nil || !errors.Is(errs[1], ErrPerm) || errs[2] != nil {
		t.Fatalf("the group returned %v, want nil, ErrPerm, nil", errs)
	}
	if n := records(fs, dev.writes); n != 1 {
		t.Errorf("the group made %d journal records, want 1", n)
	}
	again := remount(t, dev)
	for _, c := range []struct {
		path string
		want int
	}{{"/a", 4}, {"/b", 0}, {"/c", 4}} {
		if got := mappedBlocks(openRW(t, again, c.path), 4); got != c.want {
			t.Errorf("%s maps %d blocks after remount, want %d", c.path, got, c.want)
		}
	}
}

// TestJournalCrashSweepGroup cuts power at every write prefix of a
// two-member group: a Remove of /old (8 blocks of 0xAA) leads, and a write of
// 8 blocks of 0xBB joins. Either both reach the disk or neither does, fsck is
// clean, and /old, while it exists, holds its own bytes. The joiner's data goes
// home before the record that drops /old's references, so it must not take a
// block /old freed (a Fill of /new), nor, where /old is a snapshot of the file
// it writes, find a block /old shared unshared and overwrite it in place
// (txGroup.freed).
func TestJournalCrashSweepGroup(t *testing.T) {
	data := make([][]byte, 8)
	for i := range data {
		data[i] = pattern(0xBB, crashBS)
	}
	aa := func(t *testing.T, fs *FS, path string) {
		f, err := fs.Create(nil, path, 0, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(nil, pattern(0xAA, 8*crashBS), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, target string
		before       []byte // what target holds before the group
		setup        func(t *testing.T, fs *FS)
		write        func(p *sim.Proc, f *File) error
	}{
		{"fill", "/new", make([]byte, 8*crashBS),
			func(t *testing.T, fs *FS) {
				aa(t, fs, "/old")
				if _, err := fs.Create(nil, "/new", 0, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			func(p *sim.Proc, f *File) error { _, err := f.Fill(p, 0, 8, data); return err }},
		{"unshare", "/origin", pattern(0xAA, 8*crashBS),
			func(t *testing.T, fs *FS) {
				aa(t, fs, "/origin")
				if err := fs.Snapshot(nil, "/origin", "/old", 0); err != nil {
					t.Fatal(err)
				}
			},
			func(p *sim.Proc, f *File) error { _, err := f.WriteAt(p, bytes.Join(data, nil), 0); return err }},
	} {
		for _, mode := range []JournalMode{JournalMetadata, JournalFull} {
			t.Run(fmt.Sprint(c.name, "/", mode), func(t *testing.T) {
				acked := 0
				pre, writes := recordOp(t, mode, c.setup,
					func(t *testing.T, fs *FS) {
						fs.opCost = sim.Microsecond
						f := openRW(t, fs, c.target)
						errs := groupOps(fs,
							func(p *sim.Proc) error { return fs.Remove(p, "/old", 0) },
							func(p *sim.Proc) error { return c.write(p, f) })
						if errs[0] != nil || errs[1] != nil {
							t.Fatalf("group: %v", errs)
						}
						rec := fs.dev.(*recordingDev)
						acked = len(rec.writes)
						if n := records(fs, rec.writes); n != 1 {
							t.Fatalf("the group made %d journal records, want 1", n)
						}
					})
				sweep(t, pre, writes, func(t *testing.T, point int, fs *FS) {
					_, err := fs.Stat(nil, "/old", 0)
					removed := errors.Is(err, ErrNotExist)
					want := c.before
					if removed {
						want = pattern(0xBB, 8*crashBS)
					}
					if !bytes.Equal(readAll(t, fs, c.target, 8*crashBS), want) {
						t.Fatalf("crash point %d/%d: /old removed %v, but %s holds neither all its old bytes nor all its new", point, acked, removed, c.target)
					}
					if !removed && !bytes.Equal(readAll(t, fs, "/old", 8*crashBS), pattern(0xAA, 8*crashBS)) {
						t.Fatalf("crash point %d/%d: /old holds other bytes than its own", point, acked)
					}
				})
			})
		}
	}
}

// When the leader's begin fails, the joiners do not take its error: each runs
// as an operation of its own and retries begin as a lone caller would. An
// Allocate whose checkpoint fails leaves its transaction owed; the leader's
// retry of that checkpoint fails too, and the two joiners' Creates commit.
func TestAFailedLeaderBeginFailsNoJoiner(t *testing.T) {
	setup := func() (*FS, *rejectOneDev) {
		dev := &rejectOneDev{MemDev: NewMemDev(crashBS, crashNB), reject: -1}
		fs, err := Format(nil, dev, Params{InodeCount: 64, JournalBlocks: 64, Mode: JournalMetadata, OpCost: 2 * sim.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Create(nil, "/a", 0, 0o644); err != nil {
			t.Fatal(err)
		}
		dev.writes = nil
		return fs, dev
	}
	// The Allocate's last write is its checkpoint's.
	fs, dev := setup()
	if err := openRW(t, fs, "/a").Allocate(nil, 0, 8); err != nil {
		t.Fatal(err)
	}
	last := len(dev.writes) - 1
	fs, dev = setup()
	dev.reject = last
	if err := openRW(t, fs, "/a").Allocate(nil, 0, 8); err == nil || !fs.owed {
		t.Fatalf("Allocate with its checkpoint rejected: %v, owed %v", err, fs.owed)
	}
	dev.reject = len(dev.writes) // the leader's retry of the checkpoint

	eng := sim.NewEngine()
	fs.lock = sim.NewSemaphore(eng, 1)
	eng.Go("holder", func(p *sim.Proc) {
		fs.lock.Acquire(p)
		p.Sleep(fs.opCost)
		fs.lock.Release()
	})
	errs := make([]error, 3)
	for i, path := range []string{"/x", "/y", "/z"} {
		eng.Go("member", func(p *sim.Proc) { _, errs[i] = fs.Create(p, path, 0, 0o644) })
	}
	eng.Run()
	eng.Shutdown()
	if errs[0] == nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("the group returned %v, want the leader's error, nil, nil", errs)
	}
	again, err := Mount(nil, dev.MemDev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Check(nil); err != nil {
		t.Fatalf("fsck after remount: %v", err)
	}
	for _, path := range []string{"/y", "/z"} {
		if _, err := again.Stat(nil, path, 0); err != nil {
			t.Errorf("%s after remount: %v", path, err)
		}
	}
}
