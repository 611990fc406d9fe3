package guest

import (
	"fmt"

	"nesc/internal/hostmem"
	"nesc/internal/pcie"
	"nesc/internal/sim"
)

// Policy selects which queue pair a MultiQueue submission lands on.
type Policy int

const (
	// PolicyHash statically spreads requests across queues by a hash of the
	// LBA, so all accesses to one block ride the same queue (preserving
	// per-block ordering) while the address space spreads evenly.
	PolicyHash Policy = iota
	// PolicyLeastOccupied steers each request to the queue with the most
	// free submission slots, trading per-block ordering for load balance.
	PolicyLeastOccupied
)

func (p Policy) String() string {
	switch p {
	case PolicyHash:
		return "hash"
	case PolicyLeastOccupied:
		return "least-occupied"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// MultiQueue multiplexes one function's N queue pairs behind the single
// Submit interface the rest of the guest stack uses. With one queue it is a
// transparent wrapper around QueuePair — same MMIO sequence, same event
// schedule. Each underlying queue keeps its own timeout/poll/backoff
// recovery, so losing a completion on one queue never stalls the others.
type MultiQueue struct {
	queues []*QueuePair
	policy Policy
}

// NewMultiQueue builds the ring client cfg describes on the function whose
// register page sits at pageBus — the one constructor behind the PF driver and
// every VF driver. The MMIO it issues is, in order: each queue's ring base,
// ring size and completion base, queue by queue; then, only with a deadline
// set, each queue's deadline budget in queue order.
func NewMultiQueue(p *sim.Proc, eng *sim.Engine, mem *hostmem.Memory, fab *pcie.Fabric, pageBus int64, cfg RingConfig) (*MultiQueue, error) {
	if cfg.Entries == 0 {
		cfg.Entries = 128
	}
	if cfg.Queues < 1 {
		cfg.Queues = 1
	}
	mq := &MultiQueue{queues: make([]*QueuePair, 0, cfg.Queues), policy: cfg.Policy}
	for q := 0; q < cfg.Queues; q++ {
		qp, err := newQueuePair(p, eng, mem, fab, pageBus, q, cfg)
		if err != nil {
			return nil, err
		}
		mq.queues = append(mq.queues, qp)
	}
	for _, qp := range mq.queues {
		if err := qp.armDeadline(p); err != nil {
			return nil, err
		}
	}
	return mq, nil
}

// NumQueues reports how many queue pairs the mux spans.
func (mq *MultiQueue) NumQueues() int { return len(mq.queues) }

// Queue returns the q-th underlying queue pair.
func (mq *MultiQueue) Queue(q int) *QueuePair { return mq.queues[q] }

// Queues returns the underlying queue pairs (shared slice; do not mutate).
func (mq *MultiQueue) Queues() []*QueuePair { return mq.queues }

// ArmShadow enables shadow-doorbell batching on every queue, in queue order.
func (mq *MultiQueue) ArmShadow(p *sim.Proc) error {
	for _, qp := range mq.queues {
		if err := qp.ArmShadow(p); err != nil {
			return err
		}
	}
	return nil
}

// DeviceSize reads the function's device-size register.
func (mq *MultiQueue) DeviceSize(p *sim.Proc) (uint64, error) {
	return mq.queues[0].DeviceSize(p)
}

// pick selects the queue for a request at lba under the current policy.
func (mq *MultiQueue) pick(lba uint64) *QueuePair {
	n := len(mq.queues)
	if n == 1 {
		return mq.queues[0]
	}
	switch mq.policy {
	case PolicyLeastOccupied:
		best := 0
		for q := 1; q < n; q++ {
			if mq.queues[q].FreeSlots() > mq.queues[best].FreeSlots() {
				best = q
			}
		}
		return mq.queues[best]
	default:
		// Multiplicative (Fibonacci) hash: plain lba % n would pin every
		// strided workload whose stride divides n onto a single queue.
		h := lba * 0x9E3779B97F4A7C15
		return mq.queues[int(h>>56)%n]
	}
}

// Submit steers one request to a queue by policy and blocks until its
// completion, with the per-queue recovery semantics of QueuePair.Submit.
func (mq *MultiQueue) Submit(p *sim.Proc, op uint32, lba uint64, count uint32, bufAddr int64) (uint32, error) {
	return mq.pick(lba).Submit(p, op, lba, count, bufAddr)
}

// OnInterrupt drains completions on queue q. It runs in engine (interrupt)
// context; the caller maps the MSI vector to a queue index via
// core.QueueOfVector.
func (mq *MultiQueue) OnInterrupt(q int) {
	if q < 0 || q >= len(mq.queues) {
		return
	}
	mq.queues[q].OnInterrupt()
}

// Recover re-arms every queue pair after a function-level reset, in queue
// order (determinism: fixed order, not map iteration).
func (mq *MultiQueue) Recover(p *sim.Proc) error {
	for _, qp := range mq.queues {
		if err := qp.Recover(p); err != nil {
			return err
		}
	}
	return nil
}
