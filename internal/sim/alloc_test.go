package sim

import "testing"

// Allocation ceilings for the kernel's hot paths, in the style of
// internal/metrics/alloc_test.go. Zero is a guarantee; a non-zero ceiling is
// what the path costs today (one *event per scheduled event, one method
// value per scheduled resume, one closure per parked waiter) and is there to
// be lowered, never raised.
func TestKernelHotPathAllocations(t *testing.T) {
	e := NewEngine()
	// inProc measures body from inside a process, after one warm-up call has
	// grown every slice and ring body touches.
	inProc := func(body func(p *Proc)) float64 {
		var avg float64
		e.Go("guard", func(p *Proc) {
			body(p)
			avg = testing.AllocsPerRun(200, func() { body(p) })
		})
		e.Run()
		return avg
	}

	nop := func() {}
	q := NewFIFO[int](e, 8)
	sem := NewSemaphore(e, 1)
	inline := func(done func()) { done() }
	wg := NewWaitGroup(e)
	link := NewLink(e, 1e9, Microsecond, 0)
	cases := []struct {
		name string
		max  float64
		got  float64
	}{
		{"After+Step, pre-built func", 1, testing.AllocsPerRun(200, func() { e.After(Microsecond, nop); e.Step() })},
		{"FIFO.TryPush+TryPop", 0, testing.AllocsPerRun(200, func() { q.TryPush(1); q.TryPop() })},
		{"FIFO.Push+Pop, room and items", 0, inProc(func(p *Proc) { q.Push(p, 1); q.Pop(p) })},
		{"Semaphore.Acquire+Release, free", 0, inProc(func(p *Proc) { sem.Acquire(p); sem.Release() })},
		{"Wait, done inside start", 0, inProc(func(p *Proc) { p.Wait(inline) })},
		{"Sleep", 2, inProc(func(p *Proc) { p.Sleep(Microsecond) })},
		{"Yield", 2, inProc(func(p *Proc) { p.Yield() })},
		{"Signal.Await+Fire, fresh signal", 6, inProc(func(p *Proc) {
			s := NewSignal(e)
			e.After(Microsecond, s.Fire)
			s.Await(p)
		})},
		{"WaitGroup.WaitFor", 5, inProc(func(p *Proc) {
			wg.Add(1)
			e.After(Microsecond, wg.Done)
			wg.WaitFor(p)
		})},
		{"Link.TransferP", 1, inProc(func(p *Proc) { link.TransferP(p, 4096) })},
	}
	for _, tc := range cases {
		if tc.got > tc.max {
			t.Errorf("%s allocates %v per call, ceiling %v", tc.name, tc.got, tc.max)
		}
		t.Logf("%-34s %v", tc.name, tc.got)
	}
}
