package workload

import (
	"fmt"
	"math/rand"

	"nesc/internal/sim"
)

// OLTP reproduces the paper's MySQL-serving-SysBench-OLTP workload (§VI,
// Table II: "relational database server serving the SysBench OLTP
// workload"): a paged table file receives transactions mixing point selects
// with updates; updates append to a write-ahead log and sync it at commit,
// the standard InnoDB-style discipline. CPUPerQuery models the database's
// compute per query so storage is only part of each transaction — which is
// why the paper's application speedups (Fig. 12) are far smaller than its
// raw-device speedups.
type OLTP struct {
	// Rows sizes the table.
	Rows int
	// RowBytes is the row payload (SysBench uses ~250 B rows).
	RowBytes int
	// PageBytes is the table page size (database block).
	PageBytes int
	// Transactions is the measured transaction count.
	Transactions int
	// SelectsPerTxn / UpdatesPerTxn mirror SysBench OLTP's mix
	// (10 point selects, 2 updates per transaction by default).
	SelectsPerTxn int
	UpdatesPerTxn int
	// CPUPerQuery is the database compute per query.
	CPUPerQuery sim.Time
	// BufferPoolPages models the database cache: that many hot pages hit in
	// memory and skip storage.
	BufferPoolPages int
	Seed            int64
}

// RunPrepared executes against an already prepared table/log pair.
func (o OLTP) run(p *sim.Proc, table, log ByteTarget) (Result, error) {
	res := Result{Name: "oltp"}
	rowsPerPage := o.PageBytes / o.RowBytes
	pages := (o.Rows + rowsPerPage - 1) / rowsPerPage
	rng := rand.New(rand.NewSource(o.Seed))
	cached := make(map[int]bool, o.BufferPoolPages)
	var cacheOrder []int
	touch := func(page int) bool {
		if cached[page] {
			return true
		}
		cached[page] = true
		cacheOrder = append(cacheOrder, page)
		if len(cacheOrder) > o.BufferPoolPages {
			old := cacheOrder[0]
			cacheOrder = cacheOrder[1:]
			delete(cached, old)
		}
		return false
	}
	logOff := int64(0)
	err := Timed(p, &res, int64(o.Transactions), 0, func(int64) error {
		for q := 0; q < o.SelectsPerTxn; q++ {
			p.Sleep(o.CPUPerQuery)
			page := rng.Intn(pages)
			if touch(page) {
				continue // buffer pool hit
			}
			if err := table.ReadAt(p, int64(page)*int64(o.PageBytes), o.PageBytes); err != nil {
				return err
			}
			res.Bytes += int64(o.PageBytes)
		}
		dirty := 0
		for q := 0; q < o.UpdatesPerTxn; q++ {
			p.Sleep(o.CPUPerQuery)
			page := rng.Intn(pages)
			if !touch(page) {
				if err := table.ReadAt(p, int64(page)*int64(o.PageBytes), o.PageBytes); err != nil {
					return err
				}
				res.Bytes += int64(o.PageBytes)
			}
			if err := table.WriteAt(p, int64(page)*int64(o.PageBytes), o.PageBytes); err != nil {
				return err
			}
			res.Bytes += int64(o.PageBytes)
			dirty++
		}
		if dirty > 0 {
			// Commit: append the redo record and fsync the log.
			rec := 128 * dirty
			if err := log.WriteAt(p, logOff, rec); err != nil {
				return err
			}
			logOff += int64(rec)
			res.Bytes += int64(rec)
			if err := log.Sync(p); err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

// Run prepares the table and log files on fs and executes the transactions.
func (o OLTP) Run(p *sim.Proc, fs FS) (Result, error) {
	if o.RowBytes == 0 {
		o.RowBytes = 256
	}
	if o.PageBytes == 0 {
		o.PageBytes = 4096
	}
	if o.SelectsPerTxn == 0 {
		o.SelectsPerTxn = 10
	}
	if o.UpdatesPerTxn == 0 {
		o.UpdatesPerTxn = 2
	}
	if o.CPUPerQuery == 0 {
		o.CPUPerQuery = 25 * sim.Microsecond
	}
	if o.BufferPoolPages == 0 {
		o.BufferPoolPages = 64
	}
	if o.Rows == 0 {
		return Result{}, fmt.Errorf("workload: OLTP needs Rows")
	}
	table, err := fs.Create(p, "/oltp.tbl")
	if err != nil {
		return Result{}, err
	}
	rowsPerPage := o.PageBytes / o.RowBytes
	pages := (o.Rows + rowsPerPage - 1) / rowsPerPage
	for pg := 0; pg < pages; pg++ {
		if err := table.WriteAt(p, int64(pg)*int64(o.PageBytes), o.PageBytes); err != nil {
			return Result{}, err
		}
	}
	log, err := fs.Create(p, "/oltp.log")
	if err != nil {
		return Result{}, err
	}
	return o.run(p, table, log)
}
