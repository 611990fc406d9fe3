package guest

import (
	"testing"

	"nesc/internal/sim"
)

// testMux builds a MultiQueue over bare queue pairs (no device behind them);
// pick() only consults FreeSlots, so that is all the policies need.
func testMux(eng *sim.Engine, slots ...int) *MultiQueue {
	mq := &MultiQueue{}
	for i, n := range slots {
		mq.queues = append(mq.queues, &QueuePair{queue: i, slots: sim.NewSemaphore(eng, n)})
	}
	return mq
}

func TestPolicyHashSpreads(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	mq := testMux(eng, 8, 8, 8, 8)
	// The pathological pattern for lba % n: a stride-4 scan (ParallelDD's
	// per-worker layout). The multiplicative hash must still spread it.
	hits := make([]int, 4)
	for i := 0; i < 64; i++ {
		hits[mq.pick(uint64(i*4)).Queue()]++
	}
	for q, n := range hits {
		if n == 0 {
			t.Errorf("queue %d never picked by hash policy: %v", q, hits)
		}
		if n > 32 {
			t.Errorf("queue %d got %d of 64 strided LBAs: %v", q, n, hits)
		}
	}
	// The hash is a pure function of the LBA: same block, same queue.
	for _, lba := range []uint64{0, 7, 4096, 1 << 40} {
		if mq.pick(lba) != mq.pick(lba) {
			t.Errorf("hash policy unstable for lba %d", lba)
		}
	}
}

func TestPolicyLeastOccupied(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	mq := testMux(eng, 2, 7, 5)
	mq.policy = PolicyLeastOccupied
	if got := mq.pick(12345).Queue(); got != 1 {
		t.Errorf("picked queue %d, want 1 (most free slots)", got)
	}
	// Ties break toward the lowest index, deterministically.
	tie := testMux(eng, 4, 4, 4)
	tie.policy = PolicyLeastOccupied
	if got := tie.pick(99).Queue(); got != 0 {
		t.Errorf("tie broke to queue %d, want 0", got)
	}
}

func TestPolicySingleQueue(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	for _, pol := range []Policy{PolicyHash, PolicyLeastOccupied} {
		mq := testMux(eng, 8)
		mq.policy = pol
		for _, lba := range []uint64{0, 1, 77, 1 << 33} {
			if got := mq.pick(lba).Queue(); got != 0 {
				t.Errorf("policy %v picked queue %d with one queue", pol, got)
			}
		}
	}
}
