package bench

import (
	"fmt"

	"nesc/internal/guest"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// mqRingEntries fixes the per-queue ring depth for the sweep. Kept small on
// purpose: the queue count then bounds the VF's device-visible parallelism
// (queues x entries inflight slots), which is the trade-off this ablation
// measures. With the 128-entry default a single queue already holds every
// outstanding request at QD 32 and all columns collapse.
const mqRingEntries = 2

// mqDepths are the queue depths each sweep visits.
var mqDepths = []int{1, 4, 16, 32}

// AblationMQ sweeps queue pairs per VF against queue depth on the
// direct-assigned NeSC backend. One queue serializes the guest at the ring:
// at high QD every submitter contends for the same few descriptor slots.
// With multiple queue pairs the driver spreads submitters across rings, the
// device fetch stage round-robins over them underneath the inter-VF DRR
// multiplexer, and throughput rides queue depth to the medium's limit.
//
// The scaling sweep steers with PolicyLeastOccupied so the columns isolate
// the queue-count effect; a second table compares the two steering policies
// at a fixed queue count, where the static hash's placement imbalance at
// moderate depths becomes visible.
func AblationMQ(cfg Config) ([]*stats.Table, error) {
	// One point is one VF configuration: the queue-depth sweep runs on it and
	// fills the point's column of tbl.
	type point struct {
		queues int
		policy guest.Policy
		tbl    *stats.Table
		col    string
	}
	// The columns appear in point order as the points fill them.
	scale := stats.NewTable("Multi-queue scaling (4KB writes, direct VF)", "QD", "MB/s")
	const polQueues = 4
	pol := stats.NewTable(fmt.Sprintf("Queue steering policy (q=%d, 4KB writes)", polQueues), "QD", "MB/s")
	var points []point
	for _, q := range []int{1, 2, 4, 8} {
		points = append(points, point{q, guest.PolicyLeastOccupied, scale, fmt.Sprintf("q=%d", q)})
	}
	for _, policy := range []guest.Policy{guest.PolicyHash, guest.PolicyLeastOccupied} {
		points = append(points, point{polQueues, policy, pol, policy.String()})
	}
	err := eachPoint(cfg, points, func(c *Config, pt point) { c.Core.QueuesPerVF = pt.queues },
		func(p *sim.Proc, pl *Platform, pt point) error {
			vm, tgt, err := pl.directVM(p, "mq", "/vfdisk.img", 1, rawImageBlocks, false, func(c *hypervisor.VMConfig) {
				c.VFRingEntries, c.VFQueuePolicy = mqRingEntries, pt.policy
			})
			if err != nil {
				return err
			}
			for _, qd := range mqDepths {
				res, err := (workload.ParallelDD{BlockBytes: 4096, TotalBytes: 4 << 20, QD: qd, Write: true}).Run(p, tgt)
				if err != nil {
					return err
				}
				pt.tbl.Set(fmt.Sprintf("%d", qd), pt.col, res.BandwidthMBps())
			}
			if pt.tbl == scale {
				vf := vm.Legs[0].Dev.Ctl.VF(vm.Legs[0].VFIdx)
				var served []int64
				for q := 0; q < pt.queues; q++ {
					served = append(served, vf.QueueReqs(q))
				}
				scale.Note("q=%d per-queue requests served: %v", pt.queues, served)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	scale.Note("per-queue rings fixed at %d entries; columns are queue pairs per VF (least-occupied steering)", mqRingEntries)
	scale.Note("fetch stage round-robins a function's queues under the inter-VF DRR mux")
	pol.Note("static hash can land several submitters on one ring at moderate depths; least-occupied tracks free slots")
	return []*stats.Table{scale, pol}, nil
}
