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
	queueCounts := []int{1, 2, 4, 8}
	var cols []string
	for _, q := range queueCounts {
		cols = append(cols, fmt.Sprintf("q=%d", q))
	}
	scale := stats.NewTable("Multi-queue scaling (4KB writes, direct VF)", "QD", "MB/s", cols...)
	for _, queues := range queueCounts {
		col := fmt.Sprintf("q=%d", queues)
		served, err := mqSweep(cfg, queues, guest.PolicyLeastOccupied, func(qd int, mbps float64) {
			scale.Set(fmt.Sprintf("%d", qd), col, mbps)
		})
		if err != nil {
			return nil, err
		}
		scale.Note("q=%d per-queue requests served: %v", queues, served)
	}
	scale.Note("per-queue rings fixed at %d entries; columns are queue pairs per VF (least-occupied steering)", mqRingEntries)
	scale.Note("fetch stage round-robins a function's queues under the inter-VF DRR mux")

	policies := []guest.Policy{guest.PolicyHash, guest.PolicyLeastOccupied}
	var pcols []string
	for _, pol := range policies {
		pcols = append(pcols, pol.String())
	}
	const polQueues = 4
	pol := stats.NewTable(fmt.Sprintf("Queue steering policy (q=%d, 4KB writes)", polQueues), "QD", "MB/s", pcols...)
	for _, policy := range policies {
		col := policy.String()
		if _, err := mqSweep(cfg, polQueues, policy, func(qd int, mbps float64) {
			pol.Set(fmt.Sprintf("%d", qd), col, mbps)
		}); err != nil {
			return nil, err
		}
	}
	pol.Note("static hash can land several submitters on one ring at moderate depths; least-occupied tracks free slots")
	return []*stats.Table{scale, pol}, nil
}

// mqSweep runs the queue-depth sweep on one platform with the given queue
// count and steering policy, reporting per-depth bandwidth through set and
// returning the per-queue request counts the device served.
func mqSweep(cfg Config, queues int, policy guest.Policy, set func(qd int, mbps float64)) ([]int64, error) {
	qcfg := cfg
	qcfg.Core.QueuesPerVF = queues
	pl := NewPlatform(qcfg)
	d := pl.Hyp.Device(0)
	var served []int64
	err := pl.Run(func(p *sim.Proc) error {
		if err := d.MkImage(p, "/vfdisk.img", 1, rawImageBlocks, false); err != nil {
			return err
		}
		vm, err := pl.Hyp.NewVM(p, "mq", hypervisor.VMConfig{
			Backend: hypervisor.BackendDirect, DiskPath: "/vfdisk.img", UID: 1,
			VFRingEntries: mqRingEntries, VFQueuePolicy: policy,
		})
		if err != nil {
			return err
		}
		tgt := NewVMRawTarget(vm.Kernel)
		for _, qd := range mqDepths {
			res, err := (workload.ParallelDD{BlockBytes: 4096, TotalBytes: 4 << 20, QD: qd, Write: true}).Run(p, tgt)
			if err != nil {
				return err
			}
			set(qd, res.BandwidthMBps())
		}
		vf := d.Ctl.VF(0)
		for q := 0; q < queues; q++ {
			served = append(served, vf.QueueReqs(q))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mq q=%d %v: %w", queues, policy, err)
	}
	return served, nil
}
