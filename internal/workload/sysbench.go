package workload

import (
	"fmt"
	"math/rand"

	"nesc/internal/sim"
)

// SysbenchIO reproduces the Sysbench file-I/O benchmark (§VI, Table II:
// "a sequence of random file operations"): a prepared file receives a mix of
// random reads and writes with periodic fsyncs, mirroring sysbench's
// `fileio --file-test-mode=rndrw` defaults (reads:writes = 1.5, fsync every
// 100 requests).
type SysbenchIO struct {
	// FileBytes is the prepared-file size.
	FileBytes int64
	// Ops is the number of I/O requests.
	Ops int
	// RequestBytes is the I/O unit (sysbench default 16 KB).
	RequestBytes int
	// ReadRatio is the fraction of reads (default 0.6).
	ReadRatio float64
	// FsyncEvery issues a sync after this many writes (default 100).
	FsyncEvery int
	// Seed makes the op sequence deterministic.
	Seed int64
}

// Prepare creates and fills the test file ("sysbench prepare").
func (s SysbenchIO) Prepare(p *sim.Proc, fs FS, name string) (ByteTarget, error) {
	f, err := fs.Create(p, name)
	if err != nil {
		return nil, err
	}
	const chunk = 256 * 1024
	for off := int64(0); off < s.FileBytes; off += chunk {
		n := int64(chunk)
		if off+n > s.FileBytes {
			n = s.FileBytes - off
		}
		if err := f.WriteAt(p, off, int(n)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Run executes the request mix ("sysbench run").
func (s SysbenchIO) Run(p *sim.Proc, f ByteTarget) (Result, error) {
	res := Result{Name: "sysbench-io"}
	if s.RequestBytes == 0 {
		s.RequestBytes = 16 * 1024
	}
	if s.ReadRatio == 0 {
		s.ReadRatio = 0.6
	}
	if s.FsyncEvery == 0 {
		s.FsyncEvery = 100
	}
	if s.FileBytes == 0 {
		s.FileBytes = f.Size()
	}
	if s.FileBytes < int64(s.RequestBytes) {
		return res, fmt.Errorf("workload: file smaller than request size")
	}
	rng := rand.New(rand.NewSource(s.Seed))
	slots := s.FileBytes / int64(s.RequestBytes)
	writesSinceSync := 0
	err := Timed(p, &res, int64(s.Ops), int64(s.RequestBytes), func(int64) error {
		off := rng.Int63n(slots) * int64(s.RequestBytes)
		if rng.Float64() < s.ReadRatio {
			return f.ReadAt(p, off, s.RequestBytes)
		}
		if err := f.WriteAt(p, off, s.RequestBytes); err != nil {
			return err
		}
		writesSinceSync++
		if writesSinceSync >= s.FsyncEvery {
			writesSinceSync = 0
			return f.Sync(p)
		}
		return nil
	})
	return res, err
}
