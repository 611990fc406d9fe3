package workload

import (
	"fmt"
	"math/rand"

	"nesc/internal/sim"
)

// Postmark reproduces the PostMark mail-server benchmark (§VI, Table II):
// an initial pool of small files receives a transaction mix where each
// transaction pairs a create-or-delete with a read-or-append, using file
// sizes drawn uniformly from [MinFileBytes, MaxFileBytes] — the classic
// metadata-heavy small-file load of an MTA spool.
type Postmark struct {
	// InitialFiles seeds the pool.
	InitialFiles int
	// Transactions is the measured transaction count.
	Transactions int
	// MinFileBytes / MaxFileBytes bound file sizes (defaults 500 / 9.77 KB,
	// PostMark's defaults).
	MinFileBytes int
	MaxFileBytes int
	// ReadBlockBytes is the read/append unit (PostMark default 512).
	ReadBlockBytes int
	// TransactionCPU models the mail server's per-transaction compute
	// (parsing, queueing).
	TransactionCPU sim.Time
	Seed           int64
}

type pmFile struct {
	name string
	f    ByteTarget
	size int
}

// Run seeds the pool and executes the transaction mix.
func (pm Postmark) Run(p *sim.Proc, fs FS) (Result, error) {
	res := Result{Name: "postmark"}
	if pm.MinFileBytes == 0 {
		pm.MinFileBytes = 500
	}
	if pm.MaxFileBytes == 0 {
		pm.MaxFileBytes = 10000
	}
	if pm.ReadBlockBytes == 0 {
		pm.ReadBlockBytes = 512
	}
	rng := rand.New(rand.NewSource(pm.Seed))
	var pool []pmFile
	next := 0
	create := func() error {
		name := fmt.Sprintf("/pm%06d", next)
		next++
		f, err := fs.Create(p, name)
		if err != nil {
			return err
		}
		size := pm.MinFileBytes + rng.Intn(pm.MaxFileBytes-pm.MinFileBytes+1)
		if err := f.WriteAt(p, 0, size); err != nil {
			return err
		}
		pool = append(pool, pmFile{name: name, f: f, size: size})
		return nil
	}
	// Pool setup (not measured, as in PostMark).
	for i := 0; i < pm.InitialFiles; i++ {
		if err := create(); err != nil {
			return res, err
		}
	}
	err := Timed(p, &res, int64(pm.Transactions), 0, func(int64) error {
		p.Sleep(pm.TransactionCPU)
		// Half of each transaction: create or delete.
		if rng.Intn(2) == 0 || len(pool) == 0 {
			if err := create(); err != nil {
				return err
			}
		} else {
			k := rng.Intn(len(pool))
			victim := pool[k]
			pool[k] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			if err := fs.Remove(p, victim.name); err != nil {
				return err
			}
		}
		if len(pool) == 0 {
			return nil
		}
		// Other half: read whole file or append.
		k := rng.Intn(len(pool))
		target := &pool[k]
		if rng.Intn(2) == 0 {
			for off := 0; off < target.size; off += pm.ReadBlockBytes {
				n := pm.ReadBlockBytes
				if off+n > target.size {
					n = target.size - off
				}
				if err := target.f.ReadAt(p, int64(off), n); err != nil {
					return err
				}
				res.Bytes += int64(n)
			}
		} else {
			n := pm.ReadBlockBytes + rng.Intn(pm.ReadBlockBytes)
			if err := target.f.WriteAt(p, int64(target.size), n); err != nil {
				return err
			}
			target.size += n
			res.Bytes += int64(n)
		}
		return nil
	})
	return res, err
}
