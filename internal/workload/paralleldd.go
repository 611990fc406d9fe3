package workload

import (
	"fmt"

	"nesc/internal/sim"
)

// ParallelDD is dd at queue depth > 1: QD workers stream disjoint regions
// of the target concurrently (fio-style iodepth). It exposes how much
// request-level parallelism each virtualization backend can absorb — NeSC's
// hardware pipeline scales until the medium saturates, while software
// backends serialize on their per-request CPU costs.
type ParallelDD struct {
	BlockBytes int
	// TotalBytes is the aggregate volume across all workers.
	TotalBytes int64
	QD         int
	Write      bool
}

// Run executes the workers and aggregates their results.
func (d ParallelDD) Run(p *sim.Proc, t ByteTarget) (Result, error) {
	if d.QD < 1 {
		d.QD = 1
	}
	res := Result{Name: fmt.Sprintf("dd qd=%d bs=%d", d.QD, d.BlockBytes)}
	if d.BlockBytes <= 0 || d.TotalBytes <= 0 {
		return res, fmt.Errorf("workload: bad parallel dd geometry")
	}
	region := t.Size() / int64(d.QD)
	region -= region % int64(d.BlockBytes)
	if region < int64(d.BlockBytes) {
		return res, fmt.Errorf("workload: target too small for QD %d", d.QD)
	}
	perWorker := d.TotalBytes / int64(d.QD)

	eng := p.Engine()
	wg := sim.NewWaitGroup(eng)
	results := make([]Result, d.QD)
	errs := make([]error, d.QD)
	start := p.Now()
	for w := 0; w < d.QD; w++ {
		wg.Add(1)
		eng.Go("pdd-worker", func(q *sim.Proc) {
			defer wg.Done()
			dd := DD{
				BlockBytes:  d.BlockBytes,
				TotalBytes:  perWorker,
				Write:       d.Write,
				StartOffset: int64(w) * region,
			}
			results[w], errs[w] = dd.Run(q, &regionTarget{t: t, base: int64(w) * region, size: region})
		})
	}
	wg.WaitFor(p)
	res.Elapsed = p.Now() - start
	for w := 0; w < d.QD; w++ {
		if errs[w] != nil {
			return res, errs[w]
		}
		res.Ops += results[w].Ops
		res.Bytes += results[w].Bytes
		for _, v := range []float64{results[w].Lat.Mean()} {
			res.Lat.Add(v) // per-worker means; fine for aggregate reporting
		}
	}
	return res, nil
}

// regionTarget confines a worker to its slice of the device so concurrent
// workers never overlap.
type regionTarget struct {
	t    ByteTarget
	base int64
	size int64
}

func (r *regionTarget) Size() int64 { return r.size }
func (r *regionTarget) ReadAt(p *sim.Proc, off int64, n int) error {
	return r.t.ReadAt(p, r.base+off%r.size, n)
}
func (r *regionTarget) WriteAt(p *sim.Proc, off int64, n int) error {
	return r.t.WriteAt(p, r.base+off%r.size, n)
}
func (r *regionTarget) Sync(p *sim.Proc) error { return r.t.Sync(p) }
