package extfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func TestMigratePreservesContentAndMovesBlocks(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/m", 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300*1024)
	rand.New(rand.NewSource(8)).Read(data)
	if _, err := f.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	before := f.Extents()[0]
	free0 := fs.FreeBlocks()
	if err := f.Migrate(nil); err != nil {
		t.Fatal(err)
	}
	if before.Physical == f.Extents()[0].Physical {
		t.Fatal("migration left blocks in place")
	}
	if fs.FreeBlocks() != free0 {
		t.Fatalf("migration changed free space: %d -> %d", free0, fs.FreeBlocks())
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(nil, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("migration corrupted content")
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateSparseFile(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, _ := fs.Create(nil, "/s", 0, 0o644)
	if _, err := f.WriteAt(nil, []byte("island"), 100*1024); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(nil, 500*1024); err != nil {
		t.Fatal(err)
	}
	if err := f.Migrate(nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if _, err := f.ReadAt(nil, got, 100*1024); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "island" {
		t.Fatalf("sparse migration lost data: %q", got)
	}
	// Holes stay holes.
	var mapped uint64
	for _, r := range f.Extents() {
		mapped += r.Count
	}
	if mapped != 1 {
		t.Fatalf("sparse file maps %d blocks after migration, want 1", mapped)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateErrors(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	// Only a file can be opened to migrate.
	if _, err := fs.Open(nil, "/missing", 0, PermRead|PermWrite); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing = %v", err)
	}
	if err := fs.Mkdir(nil, "/d", 0, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open(nil, "/d", 0, PermRead|PermWrite); !errors.Is(err, ErrIsDir) {
		t.Fatalf("open dir = %v", err)
	}
	// Out of space: a file larger than half the free space cannot migrate
	// (needs a full second copy in flight), and must roll back cleanly.
	dev := NewMemDev(1024, 2048)
	small, err := Format(nil, dev, Params{InodeCount: 16, JournalBlocks: 16, Mode: JournalMetadata})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := small.Create(nil, "/big", 0, 0o644)
	free := small.FreeBlocks()
	if _, err := f.WriteAt(nil, make([]byte, (free*2/3)*1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Migrate(nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized migrate = %v", err)
	}
	if err := small.Check(nil); err != nil {
		t.Fatalf("rollback left inconsistency: %v", err)
	}
}

// Crash-recovery property: whatever transaction the crash lands on, the
// remounted filesystem is consistent.
func TestCrashRecoveryProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		mode := JournalMetadata
		if trial%2 == 1 {
			mode = JournalFull
		}
		dev := NewMemDev(1024, 8192)
		fs, err := Format(nil, dev, Params{InodeCount: 64, JournalBlocks: 128, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		crashAt := rng.Intn(30) + 2
		names := []string{"/a", "/b", "/c"}
		handles := map[string]*File{}
		for op := 0; ; op++ {
			if op == crashAt {
				fs.failAfterCommit = true
			}
			name := names[rng.Intn(len(names))]
			var err error
			switch rng.Intn(4) {
			case 0:
				var f *File
				f, err = fs.Create(nil, name, 0, 0o644)
				if err == nil {
					handles[name] = f
				} else if errors.Is(err, ErrExist) {
					err = nil
				}
			case 1:
				if f := handles[name]; f != nil {
					// Keep writes within the full-journal transaction cap.
					_, err = f.WriteAt(nil, make([]byte, 1+rng.Intn(8000)), int64(rng.Intn(20000)))
				}
			case 2:
				if f := handles[name]; f != nil {
					err = f.Truncate(nil, uint64(rng.Intn(20000)))
				}
			case 3:
				err = fs.Remove(nil, name, 0)
				if err == nil {
					delete(handles, name)
				} else if errors.Is(err, ErrNotExist) {
					err = nil
				}
			}
			if errors.Is(err, ErrDead) {
				break // crashed
			}
			if err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			if op > crashAt+20 {
				t.Fatalf("trial %d: crash never triggered", trial)
			}
		}
		// Remount: journal redo must yield a consistent filesystem.
		fs2, err := Mount(nil, dev, 0)
		if err != nil {
			t.Fatalf("trial %d: remount failed: %v", trial, err)
		}
		if err := fs2.Check(nil); err != nil {
			t.Fatalf("trial %d: post-crash fsck: %v", trial, err)
		}
	}
}
