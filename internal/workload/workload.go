// Package workload implements the paper's benchmarks (Table II):
//
//	dd        — sequential raw-device read/write microbenchmark
//	sysbench  — Sysbench file I/O: random read/write mix over a prepared file
//	postmark  — mail-server simulation: transactions over a pool of small
//	            files (create/delete + read/append)
//	oltp      — relational-style transactions (point selects and updates
//	            with sync) over a paged table file, the SysBench OLTP
//	            workload served by a database engine
//
// Workloads are deterministic (seeded) and target-agnostic: they run
// identically against a NeSC VF, a virtio disk, an emulated disk, or the
// bare host device, which is exactly how the paper compares backends.
package workload

import (
	"fmt"

	"nesc/internal/sim"
	"nesc/internal/stats"
)

// ByteTarget is a raw byte-addressable device or file view.
type ByteTarget interface {
	// ReadAt / WriteAt move n bytes at off; content is carried by the
	// target's own buffers (workloads measure movement, not values).
	ReadAt(p *sim.Proc, off int64, n int) error
	WriteAt(p *sim.Proc, off int64, n int) error
	Size() int64
	// Sync orders outstanding writes (fsync).
	Sync(p *sim.Proc) error
}

// FS is the minimal filesystem facade the file workloads need.
type FS interface {
	Create(p *sim.Proc, name string) (ByteTarget, error)
	Open(p *sim.Proc, name string) (ByteTarget, error)
	Remove(p *sim.Proc, name string) error
}

// Result summarizes one workload run.
type Result struct {
	Name    string
	Ops     int64
	Bytes   int64
	Elapsed sim.Time
	// Lat samples per-operation latency in microseconds.
	Lat stats.Sampler
}

// BandwidthMBps reports throughput in MB/s (10^6 bytes per second).
func (r Result) BandwidthMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// OpsPerSec reports the operation rate.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// MeanLatencyUs reports the mean per-operation latency in microseconds.
func (r Result) MeanLatencyUs() float64 { return r.Lat.Mean() }

func (r Result) String() string {
	return fmt.Sprintf("%s: %d ops, %.1f MB/s, %.1f us/op, %.0f ops/s",
		r.Name, r.Ops, r.BandwidthMBps(), r.MeanLatencyUs(), r.OpsPerSec())
}

// Timed is the measured phase every workload shares: it calls op n times,
// counts each call into res as one operation moving `bytes` bytes with its
// latency sampled, and sets res.Elapsed to the phase's span. It stops at the
// first error, leaving Elapsed unset.
func Timed(p *sim.Proc, res *Result, n, bytes int64, op func(i int64) error) error {
	start := p.Now()
	for i := int64(0); i < n; i++ {
		opStart := p.Now()
		if err := op(i); err != nil {
			return err
		}
		res.Ops++
		res.Bytes += bytes
		res.Lat.Add((p.Now() - opStart).Micros())
	}
	res.Elapsed = p.Now() - start
	return nil
}
