package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(30*Microsecond, func() { got = append(got, 3) })
	e.After(10*Microsecond, func() { got = append(got, 1) })
	e.After(20*Microsecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30*Microsecond {
		t.Fatalf("clock = %v, want 30us", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		e.After(5*Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.After(Microsecond, func() {
		trace = append(trace, e.Now())
		e.After(2*Microsecond, func() {
			trace = append(trace, e.Now())
		})
	})
	e.Run()
	if len(trace) != 2 || trace[0] != Microsecond || trace[1] != 3*Microsecond {
		t.Fatalf("nested schedule trace = %v", trace)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10*Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*Microsecond, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.After(10*Microsecond, func() { fired++ })
	e.After(20*Microsecond, func() { fired++ })
	e.RunUntil(15 * Microsecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 15*Microsecond {
		t.Fatalf("clock = %v, want 15us", e.Now())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// Property: dispatch order equals sorted order of (time, insertion) for any
// random schedule.
func TestEngineDispatchOrderProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		e := NewEngine()
		type stamp struct {
			at  Time
			seq int
		}
		want := make([]stamp, len(delaysRaw))
		var got []stamp
		for i, d := range delaysRaw {
			at := Time(d) * Microsecond
			want[i] = stamp{at, i}
			s := stamp{at, i}
			e.At(at, func() { got = append(got, s) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleepAndHandoff(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * Microsecond)
		trace = append(trace, "a1")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(5 * Microsecond)
		trace = append(trace, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a1"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcWaitSynchronousCompletion(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Go("p", func(p *Proc) {
		p.Wait(func(done func()) { done() }) // completes inline
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("process did not survive synchronous Wait completion")
	}
}

func TestProcWaitAsynchronousCompletion(t *testing.T) {
	e := NewEngine()
	var doneAt Time
	e.Go("p", func(p *Proc) {
		p.Wait(func(done func()) { e.After(7*Microsecond, done) })
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 7*Microsecond {
		t.Fatalf("wait completed at %v, want 7us", doneAt)
	}
}

func TestFIFOBlockingPopAndBackpressure(t *testing.T) {
	e := NewEngine()
	q := NewFIFO[int](e, 2)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v := q.Pop(p)
			got = append(got, v)
			p.Sleep(10 * Microsecond) // slow consumer forces producer to block
		}
	})
	var producerDone Time
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Push(p, i)
		}
		producerDone = p.Now()
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("consumed %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
	if producerDone == 0 {
		t.Fatal("producer finished instantly; bounded queue did not apply backpressure")
	}
}

func TestFIFOTryOps(t *testing.T) {
	e := NewEngine()
	q := NewFIFO[string](e, 1)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	if !q.TryPush("x") {
		t.Fatal("TryPush on empty queue failed")
	}
	if q.TryPush("y") {
		t.Fatal("TryPush past capacity succeeded")
	}
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		e.Go("worker", func(p *Proc) {
			sem.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(5 * Microsecond)
			inside--
			sem.Release()
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
	if e.Now() != 20*Microsecond {
		t.Fatalf("serialized critical sections should end at 20us, got %v", e.Now())
	}
}

func TestSignal(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			s.Await(p)
			woke = append(woke, p.Now())
		})
	}
	e.After(12*Microsecond, s.Fire)
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, at := range woke {
		if at != 12*Microsecond {
			t.Fatalf("waiter woke at %v, want 12us", at)
		}
	}
	// Awaiting a fired signal returns immediately.
	late := false
	e.Go("late", func(p *Proc) { s.Await(p); late = true })
	e.Run()
	if !late {
		t.Fatal("late waiter on fired signal blocked")
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		d := Time(i) * 10 * Microsecond
		e.After(d, wg.Done)
	}
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		wg.WaitFor(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 30*Microsecond {
		t.Fatalf("waitgroup released at %v, want 30us", doneAt)
	}
}

func TestLinkSerialization(t *testing.T) {
	e := NewEngine()
	// 1 GB/s, 1us latency, no overhead.
	l := NewLink(e, 1e9, Microsecond, 0)
	var done []Time
	l.Transfer(1000, func() { done = append(done, e.Now()) }) // 1us ser
	l.Transfer(1000, func() { done = append(done, e.Now()) }) // queued behind
	e.Run()
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
	if done[0] != 2*Microsecond { // 1us serialization + 1us latency
		t.Fatalf("first transfer done at %v, want 2us", done[0])
	}
	if done[1] != 3*Microsecond { // serialized after the first
		t.Fatalf("second transfer done at %v, want 3us", done[1])
	}
	if l.Bytes != 2000 || l.Transfers != 2 {
		t.Fatalf("accounting: bytes=%d transfers=%d", l.Bytes, l.Transfers)
	}
}

func TestLinkOverheadPenalizesSmallTransfers(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 1e9, 0, 100)
	var doneAt Time
	l.Transfer(100, func() { doneAt = e.Now() })
	e.Run()
	// 200 bytes serialized at 1GB/s = 200ns.
	if doneAt != 200*Nanosecond {
		t.Fatalf("done at %v, want 200ns", doneAt)
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0, 5*Microsecond, 0)
	var doneAt Time
	l.Transfer(1<<30, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 5*Microsecond {
		t.Fatalf("done at %v, want 5us (latency only)", doneAt)
	}
}

func TestShutdownKillsParkedProcs(t *testing.T) {
	e := NewEngine()
	q := NewFIFO[int](e, 0)
	e.Go("blocked", func(p *Proc) {
		q.Pop(p) // parks forever
		t.Error("blocked process resumed unexpectedly")
	})
	e.Run()
	e.Shutdown()
	// Nothing to assert beyond "does not deadlock or panic"; the goroutine
	// unwinds via the kill path.
}

func TestBytesTime(t *testing.T) {
	if got := BytesTime(1000, 1e9); got != Microsecond {
		t.Fatalf("BytesTime(1000, 1GB/s) = %v, want 1us", got)
	}
	if got := BytesTime(0, 1e9); got != 0 {
		t.Fatalf("BytesTime(0) = %v", got)
	}
	if got := BytesTime(1000, 0); got != 0 {
		t.Fatalf("BytesTime with zero bandwidth = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// A randomized pipeline smoke test: N producers push through a shared
// bounded FIFO to M consumers; every item must arrive exactly once.
func TestPipelineDeliveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		q := NewFIFO[int](e, 1+rng.Intn(4))
		producers := 1 + rng.Intn(3)
		perProducer := 1 + rng.Intn(20)
		seen := make(map[int]int)
		for pi := 0; pi < producers; pi++ {
			base := pi * 1000
			e.Go("prod", func(p *Proc) {
				for i := 0; i < perProducer; i++ {
					p.Sleep(Time(rng.Intn(5)) * Microsecond)
					q.Push(p, base+i)
				}
			})
		}
		total := producers * perProducer
		got := 0
		consumers := 1 + rng.Intn(3)
		for ci := 0; ci < consumers; ci++ {
			e.Go("cons", func(p *Proc) {
				for {
					if got >= total {
						return
					}
					v := q.Pop(p)
					seen[v]++
					got++
					p.Sleep(Time(rng.Intn(5)) * Microsecond)
				}
			})
		}
		e.Run()
		e.Shutdown()
		if got != total {
			t.Fatalf("trial %d: delivered %d of %d", trial, got, total)
		}
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: item %d delivered %d times", trial, k, n)
			}
		}
	}
}

func TestYieldDefersToSameTimestampEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a-before")
		p.Yield()
		order = append(order, "a-after")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	e.Run()
	if len(order) != 3 || order[0] != "a-before" || order[1] != "b" || order[2] != "a-after" {
		t.Fatalf("order = %v", order)
	}
}

func TestSteppedCounterAndIdle(t *testing.T) {
	e := NewEngine()
	if !e.Idle() || e.Pending() != 0 {
		t.Fatal("fresh engine not idle")
	}
	for i := 0; i < 5; i++ {
		e.After(Time(i)*Microsecond, func() {})
	}
	if e.Pending() != 5 || e.Idle() {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if e.Stepped != 5 {
		t.Fatalf("Stepped = %d", e.Stepped)
	}
	if !e.Idle() {
		t.Fatal("engine not idle after Run")
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-5)
		ran = true
	})
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("zero sleeps misbehaved: ran=%v now=%v", ran, e.Now())
	}
}

func TestWaitGroupAddAfterZero(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	wg.Add(1)
	wg.Done()
	// Reuse after reaching zero.
	wg.Add(1)
	released := false
	e.Go("w", func(p *Proc) {
		wg.WaitFor(p)
		released = true
	})
	e.After(3*Microsecond, wg.Done)
	e.Run()
	if !released {
		t.Fatal("waiter stuck after WaitGroup reuse")
	}
}

func TestSignalAwaitTimeout(t *testing.T) {
	// Signal fires before the deadline: AwaitTimeout reports true and the
	// process resumes at fire time.
	e := NewEngine()
	s := NewSignal(e)
	var fired bool
	var at Time
	e.Go("waiter", func(p *Proc) {
		fired = s.AwaitTimeout(p, 100*Microsecond)
		at = p.Now()
	})
	e.After(10*Microsecond, s.Fire)
	e.Run()
	if !fired || at != 10*Microsecond {
		t.Fatalf("fired=%v at %v, want true at 10us", fired, at)
	}

	// Deadline expires first: AwaitTimeout reports false at the deadline.
	e = NewEngine()
	s = NewSignal(e)
	e.Go("waiter", func(p *Proc) {
		fired = s.AwaitTimeout(p, 20*Microsecond)
		at = p.Now()
	})
	e.Run()
	if fired || at != 20*Microsecond {
		t.Fatalf("fired=%v at %v, want false at 20us", fired, at)
	}

	// Already-fired signal returns immediately; non-positive d means no
	// deadline.
	e = NewEngine()
	s = NewSignal(e)
	s.Fire()
	e.Go("waiter", func(p *Proc) {
		if !s.AwaitTimeout(p, Microsecond) {
			t.Error("AwaitTimeout on fired signal reported false")
		}
	})
	s2 := NewSignal(e)
	e.Go("nodeadline", func(p *Proc) {
		if !s2.AwaitTimeout(p, 0) {
			t.Error("AwaitTimeout without deadline reported false")
		}
	})
	e.After(5*Microsecond, s2.Fire)
	e.Run()

	// A fire after the timeout must not resume the process twice (the stale
	// waiter callback is a no-op).
	e = NewEngine()
	s = NewSignal(e)
	resumes := 0
	e.Go("waiter", func(p *Proc) {
		s.AwaitTimeout(p, 5*Microsecond)
		resumes++
		p.Sleep(30 * Microsecond)
	})
	e.After(15*Microsecond, s.Fire)
	e.Run()
	if resumes != 1 {
		t.Fatalf("process resumed %d times, want 1", resumes)
	}
}

// The event queue pops exactly the (time, insertion)-sorted order, also when
// pushes and pops interleave and many events tie on time. The reference is a
// linear scan, so the test holds for any queue implementation.
func TestEventQueueInterleavedPushPopOrder(t *testing.T) {
	type key struct {
		at Time
		id int
	}
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	var pending []key
	var got key
	pushed := 0
	push := func() {
		k := key{e.Now() + Time(rng.Intn(50)), pushed} // 50 slots: plenty of ties
		pushed++
		pending = append(pending, k)
		e.At(k.at, func() { got = k })
	}
	pop := func() {
		least := 0
		for i, k := range pending {
			if m := pending[least]; k.at < m.at || k.at == m.at && k.id < m.id {
				least = i
			}
		}
		want := pending[least]
		pending[least] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if !e.Step() || got != want || e.Now() != want.at {
			t.Fatalf("pop %d: got %+v at %v, want %+v", pushed, got, e.Now(), want)
		}
	}
	for pushed < 10000 {
		for n := rng.Intn(40); n > 0; n-- {
			push()
		}
		for n := rng.Intn(40); n > 0 && len(pending) > 0; n-- {
			pop()
		}
	}
	for len(pending) > 0 {
		pop()
	}
	if e.Step() {
		t.Fatal("queue not empty after every pushed event was popped")
	}
}

func TestShutdownSkipsProcThatNeverStarted(t *testing.T) {
	e := NewEngine()
	e.Go("unborn", func(p *Proc) { t.Error("a process killed before its start event ran") })
	e.Shutdown()
	e.Run() // its start event is now a no-op
}

// A killed process unwinds completely even when a deferred cleanup makes a
// blocking call: the call does not block, the rest of that cleanup is
// skipped, and the cleanups deferred before it still run.
func TestKillWithBlockingDeferredCleanup(t *testing.T) {
	e := NewEngine()
	q := NewFIFO[int](e, 0)
	var trace []string
	e.Go("victim", func(p *Proc) {
		defer func() { trace = append(trace, "outer") }()
		defer func() {
			trace = append(trace, "inner")
			p.Sleep(Microsecond)
			trace = append(trace, "after blocking call")
		}()
		q.Pop(p) // parks forever
	})
	e.Run()
	e.Shutdown()
	if want := []string{"inner", "outer"}; !slices.Equal(trace, want) {
		t.Fatalf("unwind trace = %v, want %v", trace, want)
	}
}

// Shutdown kills in spawn order — the same order on every run — and one
// victim's unwind is over before the next one's begins. Processes that
// finished earlier, or never started, leave no trace.
func TestShutdownKillsInSpawnOrderWithoutOverlap(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		q := NewFIFO[int](e, 0)
		var order []int
		unwinding := 0
		for i := 0; i < 50; i++ {
			e.Go("p", func(p *Proc) {
				if i%7 == 3 {
					return // gone long before Shutdown
				}
				defer func() { unwinding-- }() // runs last
				defer func() {
					q.TryPush(i) // cleanups touch shared state...
					p.Yield()    // ...and may even try to block
					t.Error("blocking call in a cleanup returned")
				}()
				defer func() { // runs first
					if unwinding++; unwinding != 1 {
						t.Errorf("proc %d unwinds inside another's unwind", i)
					}
					order = append(order, i)
				}()
				q.Pop(p)
			})
		}
		e.Run()
		e.Go("late", func(p *Proc) { t.Error("never-started process ran") })
		e.Shutdown()
		return order
	}
	a, b := run(), run()
	if len(a) != 50-7 {
		t.Fatalf("%d processes unwound, want %d", len(a), 50-7)
	}
	for i := range a {
		if a[i] != b[i] || i > 0 && a[i] <= a[i-1] {
			t.Fatalf("kill order not spawn order on every run:\n%v\n%v", a, b)
		}
	}
}

func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	e.Go("bystander", func(p *Proc) { p.Sleep(Second) })
	e.Go("faulty", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("modeling bug")
	})
	func() {
		defer func() {
			if r := recover(); r != "modeling bug" {
				t.Errorf("Run's caller recovered %v, want the process's panic value", r)
			}
		}()
		e.Run()
		t.Error("Run returned normally past a process panic")
	}()
	// The engine is still consistent: the bystander can be shut down.
	e.Shutdown()
}

// The FIFO's ring wraps many times under backpressure; items come out in
// push order and blocked pushers and poppers are served first-come
// first-served.
func TestFIFORingWrapKeepsOrderUnderBackpressure(t *testing.T) {
	// Four pushers against a 3-slot queue drained one item per microsecond:
	// the queue stays full, so its 4-slot ring wraps some 25 times.
	e := NewEngine()
	q := NewFIFO[int](e, 3)
	const pushers, each = 4, 25
	var admitted []int // pusher of each item, in the order Push returned
	for id := 0; id < pushers; id++ {
		e.Go("pusher", func(p *Proc) {
			for k := 0; k < each; k++ {
				q.Push(p, id*1000+k)
				admitted = append(admitted, id)
			}
		})
	}
	var got []int
	e.Go("popper", func(p *Proc) {
		for len(got) < pushers*each {
			p.Sleep(Microsecond)
			got = append(got, q.Pop(p))
		}
	})
	e.Run()
	// Model: pusher 0 fills the queue and blocks, then 1, 2, 3 block behind
	// it; every pop admits the longest-blocked pusher, which blocks again at
	// the back while it has items left.
	want := []int{0, 0, 0}
	left := []int{each - 3, each, each, each}
	for blocked := []int{0, 1, 2, 3}; len(blocked) > 0; {
		id := blocked[0]
		blocked = blocked[1:]
		want = append(want, id)
		if left[id]--; left[id] > 0 {
			blocked = append(blocked, id)
		}
	}
	seen := make([]int, pushers)
	for i, v := range got {
		id := v / 1000
		if i >= len(admitted) || admitted[i] != want[i] || id != want[i] || v%1000 != seen[id] {
			t.Fatalf("item %d = %d: admitted %v, want pusher order %v", i, v, admitted, want)
		}
		seen[id]++
	}

	// Three poppers blocked on an empty queue are served in the order they
	// blocked, again over many wraps of the ring.
	e = NewEngine()
	q = NewFIFO[int](e, 0)
	var served []int
	for id := 0; id < 3; id++ {
		e.Go("popper", func(p *Proc) {
			for {
				if v := q.Pop(p); v != len(served) {
					t.Errorf("popper %d got item %d, want %d", id, v, len(served))
				}
				served = append(served, id)
			}
		})
	}
	e.Go("pusher", func(p *Proc) {
		for v := 0; v < 30; v++ {
			p.Sleep(Microsecond)
			q.Push(p, v)
		}
	})
	e.Run()
	e.Shutdown()
	for i, id := range served {
		if id != i%3 || len(served) != 30 {
			t.Fatalf("poppers served in order %v, want 0,1,2 round-robin over 30 items", served)
		}
	}
}

// Wait keeps its state on the process and hands every call the same done, so
// back-to-back Waits that complete inside start, later, and inside start
// again must not confuse one another.
func TestProcWaitAlternatingSyncAndAsyncCompletion(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				p.Wait(func(done func()) { done() })
			} else {
				p.Wait(func(done func()) { e.After(3*Microsecond, done) })
			}
			at = append(at, p.Now())
		}
	})
	e.Run()
	for i, got := range at {
		if want := Time((i+1)/2) * 3 * Microsecond; got != want || len(at) != 6 {
			t.Fatalf("Wait completion times %v: call %d returned at %v, want %v", at, i, got, want)
		}
	}
}

// When the signal beats the deadline, the deadline event that stays queued
// must not wake the process out of whatever it blocks on next.
func TestAwaitTimeoutLoserEventIsNoOp(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var woke Time
	e.Go("waiter", func(p *Proc) {
		if !s.AwaitTimeout(p, 20*Microsecond) {
			t.Error("signal fired at 5us, AwaitTimeout(20us) reported a timeout")
		}
		p.Sleep(100 * Microsecond) // spans the stale deadline at 20us
		woke = p.Now()
	})
	e.After(5*Microsecond, s.Fire)
	e.Run()
	if woke != 105*Microsecond {
		t.Fatalf("process woke at %v, want 105us: the lost deadline cut its sleep short", woke)
	}
}
