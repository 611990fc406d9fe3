package pcie

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"nesc/internal/fault"
	"nesc/internal/hostmem"
	"nesc/internal/sim"
)

type testDev struct {
	name   string
	regs   map[int64]uint64
	writes []int64
}

func newTestDev(name string) *testDev {
	return &testDev{name: name, regs: make(map[int64]uint64)}
}

func (d *testDev) PCIeName() string                 { return d.name }
func (d *testDev) MMIORead(off int64, _ int) uint64 { return d.regs[off] }
func (d *testDev) MMIOWrite(off int64, _ int, v uint64) {
	d.regs[off] = v
	d.writes = append(d.writes, off)
}

func newFabric() (*Fabric, *sim.Engine, *hostmem.Memory) {
	eng := sim.NewEngine()
	mem := hostmem.New(1 << 20)
	return New(eng, mem, DefaultParams()), eng, mem
}

func TestRegisterFunctionAssignsSequentialIDs(t *testing.T) {
	f, _, _ := newFabric()
	pf := f.RegisterFunction("nesc-pf")
	vf0 := f.RegisterFunction("nesc-vf0")
	if pf != 0 || vf0 != 1 {
		t.Fatalf("ids = %d, %d", pf, vf0)
	}
}

func TestMMIORouting(t *testing.T) {
	f, eng, _ := newFabric()
	d1 := newTestDev("d1")
	d2 := newTestDev("d2")
	b1 := f.MapBAR(d1, 0x2000)
	b2 := f.MapBAR(d2, 0x1000)
	if b1 == b2 || b2 < b1+0x2000 {
		t.Fatalf("BAR overlap: %#x %#x", b1, b2)
	}
	d1.regs[0x10] = 42
	var got uint64
	var rdErr, wrErr error
	var readAt sim.Time
	eng.Go("cpu", func(p *sim.Proc) {
		got, rdErr = f.MMIORead(p, b1+0x10, 8)
		readAt = p.Now()
		wrErr = f.MMIOWrite(p, b2+0x20, 4, 7)
	})
	eng.Run()
	if rdErr != nil || wrErr != nil {
		t.Fatal(rdErr, wrErr)
	}
	if got != 42 {
		t.Fatalf("MMIORead = %d", got)
	}
	if readAt != DefaultParams().MMIOReadLatency {
		t.Fatalf("read stalled %v, want %v", readAt, DefaultParams().MMIOReadLatency)
	}
	if d2.regs[0x20] != 7 {
		t.Fatal("posted write not delivered")
	}
	if f.MMIOReads != 1 || f.MMIOWrites != 1 {
		t.Fatalf("counters: %d reads %d writes", f.MMIOReads, f.MMIOWrites)
	}
}

func TestMMIOUnmappedAddress(t *testing.T) {
	f, eng, _ := newFabric()
	eng.Go("cpu", func(p *sim.Proc) {
		if _, err := f.MMIORead(p, 0x10, 8); err == nil {
			t.Error("read of unmapped bus address succeeded")
		}
		if err := f.MMIOWrite(p, 0x10, 8, 1); err == nil {
			t.Error("write of unmapped bus address succeeded")
		}
	})
	eng.Run()
}

func TestDMAReadWriteRoundTrip(t *testing.T) {
	f, eng, mem := newFabric()
	fn := f.RegisterFunction("dev")
	src := []byte("some payload for the wire")
	buf := make([]byte, len(src))
	addr := mem.MustAlloc(64, 8)

	doneW := false
	if err := f.DMAWrite(fn, addr, src, func() { doneW = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !doneW {
		t.Fatal("DMA write never completed")
	}
	doneR := false
	if err := f.DMARead(fn, addr, buf, func() { doneR = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !doneR || !bytes.Equal(buf, src) {
		t.Fatalf("DMA read = %q", buf)
	}
	if f.DMAReads != 1 || f.DMAWrites != 1 {
		t.Fatalf("counters: %d/%d", f.DMAReads, f.DMAWrites)
	}
	if f.DMAReadBytes != int64(len(src)) || f.DMAWriteBytes != int64(len(src)) {
		t.Fatalf("byte counters: %d/%d", f.DMAReadBytes, f.DMAWriteBytes)
	}
}

func TestDMAWriteSnapshotsSource(t *testing.T) {
	// A posted DMA write must carry the bytes as of submission even if the
	// caller's buffer is reused immediately (real DMA engines copy from a
	// pinned buffer; our model snapshots instead).
	f, eng, mem := newFabric()
	fn := f.RegisterFunction("dev")
	addr := mem.MustAlloc(16, 8)
	p := []byte{1, 2, 3, 4}
	if err := f.DMAWrite(fn, addr, p, func() {}); err != nil {
		t.Fatal(err)
	}
	p[0] = 99
	eng.Run()
	got := make([]byte, 4)
	if err := mem.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("DMA write observed post-submission mutation: % x", got)
	}
}

// A hole read zeroes the guest's buffer with a posted write of zeros; one
// outside host memory is refused at admission.
func TestDMAZero(t *testing.T) {
	f, eng, mem := newFabric()
	fn := f.RegisterFunction("dev")
	addr := mem.MustAlloc(32, 8)
	if err := mem.Write(addr, bytes.Repeat([]byte{0xff}, 32)); err != nil {
		t.Fatal(err)
	}
	var err, refused error
	eng.Go("dev", func(p *sim.Proc) {
		err = f.DMAZeroP(p, fn, addr, 32)
		refused = f.DMAZeroP(p, fn, mem.Size(), 32)
	})
	eng.Run()
	if err != nil || refused == nil {
		t.Fatalf("zeroing host memory: %v; zeroing past its end: %v", err, refused)
	}
	got := make([]byte, 32)
	if err := mem.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatalf("not zeroed: % x", got)
	}
}

func TestDMATimingScalesWithSize(t *testing.T) {
	f, eng, mem := newFabric()
	fn := f.RegisterFunction("dev")
	addr := mem.MustAlloc(1<<16, 8)
	var smallDone, bigDone sim.Time
	small := make([]byte, 512)
	big := make([]byte, 1<<16)
	if err := f.DMAWrite(fn, addr, small, func() { smallDone = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	f2, eng2, mem2 := newFabric()
	addr2 := mem2.MustAlloc(1<<16, 8)
	if err := f2.DMAWrite(fn, addr2, big, func() { bigDone = eng2.Now() }); err != nil {
		t.Fatal(err)
	}
	eng2.Run()
	if bigDone <= smallDone {
		t.Fatalf("64KB DMA (%v) not slower than 512B DMA (%v)", bigDone, smallDone)
	}
	// 64KB at 3.2GB/s is ~20.5us of serialization; allow overheads.
	if bigDone < 20*sim.Microsecond {
		t.Fatalf("64KB DMA too fast: %v", bigDone)
	}
	_ = addr
}

func TestMSIDelivery(t *testing.T) {
	f, eng, _ := newFabric()
	fn := f.RegisterFunction("dev")
	var gotFn FnID
	var gotVec uint8
	var at sim.Time
	f.SetMSIHandler(func(from FnID, vector uint8) {
		gotFn, gotVec = from, vector
		at = eng.Now()
	})
	f.RaiseMSI(fn, 3)
	eng.Run()
	if gotFn != fn || gotVec != 3 {
		t.Fatalf("MSI = fn%d vec%d", gotFn, gotVec)
	}
	if at != DefaultParams().MSILatency {
		t.Fatalf("MSI delivered at %v", at)
	}
	if f.MSIs != 1 {
		t.Fatalf("MSI counter = %d", f.MSIs)
	}
}

func TestMSIWithoutHandlerIsDropped(t *testing.T) {
	f, eng, _ := newFabric()
	f.RaiseMSI(0, 1)
	eng.Run() // must not panic
}

func TestIOMMUEnforcement(t *testing.T) {
	f, eng, mem := newFabric()
	vf := f.RegisterFunction("vf")
	other := f.RegisterFunction("other")
	f.IOMMU().Enable()
	buf := mem.MustAlloc(4096, 8)
	f.IOMMU().Grant(vf, buf, 4096)

	p := make([]byte, 64)
	if err := f.DMARead(vf, buf, p, func() {}); err != nil {
		t.Fatalf("granted DMA rejected: %v", err)
	}
	if err := f.DMARead(vf, buf+4096-32, make([]byte, 64), func() {}); err == nil {
		t.Fatal("DMA spanning past grant accepted")
	}
	if err := f.DMARead(other, buf, p, func() {}); err == nil {
		t.Fatal("DMA by ungranted function accepted")
	}
	if err := f.DMAWrite(other, buf, p, func() {}); err == nil {
		t.Fatal("DMA write by ungranted function accepted")
	}
	f.IOMMU().RevokeAll(vf)
	if err := f.DMARead(vf, buf, p, func() {}); err == nil {
		t.Fatal("DMA after revoke accepted")
	}
	eng.Run()
}

func TestIOMMUDisabledAdmitsEverything(t *testing.T) {
	f, eng, mem := newFabric()
	fn := f.RegisterFunction("dev")
	addr := mem.MustAlloc(64, 8)
	if err := f.DMAWrite(fn, addr, make([]byte, 64), func() {}); err != nil {
		t.Fatalf("disabled IOMMU rejected DMA: %v", err)
	}
	eng.Run()
}

// TestDMAOutsideHostMemoryIsRefused: the address of a DMA is a word some guest
// or tree node supplied. Whatever the IOMMU says (off, it says nothing; on, its
// grant check must not be wrapped by an address near 2^63), a transfer that is
// not inside host memory is refused at admission, where callers already handle
// an error — not at the data phase, where there is no one left to tell.
func TestDMAOutsideHostMemoryIsRefused(t *testing.T) {
	for _, iommu := range []bool{false, true} {
		f, eng, mem := newFabric()
		fn := f.RegisterFunction("vf")
		if iommu {
			f.IOMMU().Enable()
			f.IOMMU().Grant(fn, mem.Size()-4096, 4096)
			if err := f.IOMMU().Check(fn, math.MaxInt64-100, 1024); err == nil {
				t.Error("IOMMU granted a range whose end wraps past 2^63")
			}
		}
		for _, addr := range []hostmem.Addr{mem.Size() - 512, mem.Size(), 1 << 40, math.MaxInt64 - 100, -4096} {
			buf := make([]byte, 1024)
			for form, err := range map[string]error{
				"DMARead":  f.DMARead(fn, addr, buf, func() {}),
				"DMAWrite": f.DMAWrite(fn, addr, buf, func() {}),
			} {
				if err == nil {
					t.Errorf("iommu=%v: %s at %#x was admitted", iommu, form, addr)
				}
			}
		}
		if err := f.DMAWrite(fn, mem.Size()-1024, make([]byte, 1024), func() {}); err != nil {
			t.Errorf("iommu=%v: a write of host memory's last bytes: %v", iommu, err)
		}
		eng.Run() // a refused transfer must have scheduled no data phase
		if f.DMAReads != 0 || f.DMAWrites != 1 {
			t.Errorf("iommu=%v: %d reads and %d writes counted, want 0 and 1", iommu, f.DMAReads, f.DMAWrites)
		}
	}
}

func TestSRIOVCap(t *testing.T) {
	c := SRIOVCap{TotalVFs: 64}
	if err := c.EnableVFs(64); err != nil {
		t.Fatal(err)
	}
	if c.NumEnabled != 64 {
		t.Fatalf("NumEnabled = %d", c.NumEnabled)
	}
	if err := c.EnableVFs(65); err == nil {
		t.Fatal("enabling more VFs than TotalVFs succeeded")
	}
	if err := c.EnableVFs(-1); err == nil {
		t.Fatal("negative VF count accepted")
	}
}

func TestTLPCount(t *testing.T) {
	f, _, _ := newFabric()
	cases := []struct {
		n    int64
		want int64
	}{{0, 1}, {1, 1}, {256, 1}, {257, 2}, {1024, 4}}
	for _, c := range cases {
		if got := f.tlpCount(c.n); got != c.want {
			t.Errorf("tlpCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestConcurrentDMAsSerializeOnLink(t *testing.T) {
	f, eng, mem := newFabric()
	fn := f.RegisterFunction("dev")
	addr := mem.MustAlloc(1<<20>>1, 8)
	// Two 64KB writes back to back must take ~2x one write's serialization.
	var t1, t2 sim.Time
	buf := make([]byte, 1<<16)
	if err := f.DMAWrite(fn, addr, buf, func() { t1 = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := f.DMAWrite(fn, addr, buf, func() { t2 = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if t2 < t1+(t1-DefaultParams().PropagationLatency)*9/10 {
		t.Fatalf("second DMA (%v) did not serialize behind first (%v)", t2, t1)
	}
}

func TestDMAFaultInjection(t *testing.T) {
	f, eng, _ := newFabric()
	plan := fault.Plan{Seed: 2}
	plan.Sites[fault.DMARead] = fault.SiteParams{OneShot: []int64{1}}
	plan.Sites[fault.DMAWrite] = fault.SiteParams{OneShot: []int64{2}}
	f.SetInjector(fault.NewInjector(plan))

	buf := make([]byte, 512)
	if err := f.DMARead(1, 0x1000, buf, func() {}); err == nil {
		t.Fatal("injected DMA read fault not surfaced")
	}
	if err := f.DMARead(1, 0x1000, buf, func() {}); err != nil {
		t.Fatalf("second DMA read failed: %v", err)
	}
	if err := f.DMAWrite(1, 0x2000, buf, func() {}); err != nil {
		t.Fatalf("first DMA write failed: %v", err)
	}
	if err := f.DMAWrite(1, 0x2000, buf, func() {}); err == nil {
		t.Fatal("injected DMA write fault not surfaced")
	}
	eng.Run()
	if f.DMAFaultsInjected != 2 {
		t.Fatalf("DMAFaultsInjected = %d, want 2", f.DMAFaultsInjected)
	}
	// Rejected transfers must not count as performed DMA.
	if f.DMAReads != 1 || f.DMAWrites != 1 {
		t.Fatalf("op counters: reads=%d writes=%d, want 1/1", f.DMAReads, f.DMAWrites)
	}
}

func TestMSIDropAndDelay(t *testing.T) {
	f, eng, _ := newFabric()
	plan := fault.Plan{Seed: 4}
	plan.Sites[fault.MSI] = fault.SiteParams{OneShot: []int64{1}, DelayProb: 1.0, Delay: 7 * sim.Microsecond}
	f.SetInjector(fault.NewInjector(plan))

	var deliveries []sim.Time
	f.SetMSIHandler(func(from FnID, vector uint8) {
		deliveries = append(deliveries, eng.Now())
	})
	f.RaiseMSI(3, 0) // dropped (one-shot)
	f.RaiseMSI(3, 0) // delivered with injected delay
	eng.Run()
	if len(deliveries) != 1 {
		t.Fatalf("delivered %d MSIs, want 1", len(deliveries))
	}
	want := f.Params.MSILatency + 7*sim.Microsecond
	if deliveries[0] != want {
		t.Fatalf("delayed MSI arrived at %v, want %v", deliveries[0], want)
	}
	if f.DroppedMSIs != 1 || f.DelayedMSIs != 1 || f.MSIs != 1 {
		t.Fatalf("counters: dropped=%d delayed=%d delivered=%d",
			f.DroppedMSIs, f.DelayedMSIs, f.MSIs)
	}
}

// dmaKinds drives each DMA kind in its callback form — from a process, the way
// a process has to: park in Wait until done fires, or not at all when the
// call is refused — and in its process form.
var dmaKinds = []struct {
	name              string
	callback, process func(f *Fabric, p *sim.Proc, fn FnID, addr hostmem.Addr, buf []byte) error
}{
	{"read",
		func(f *Fabric, p *sim.Proc, fn FnID, addr hostmem.Addr, buf []byte) error {
			return waitDMA(p, func(done func()) error { return f.DMARead(fn, addr, buf, done) })
		},
		func(f *Fabric, p *sim.Proc, fn FnID, addr hostmem.Addr, buf []byte) error {
			return f.DMAReadP(p, fn, addr, buf)
		}},
	{"write",
		func(f *Fabric, p *sim.Proc, fn FnID, addr hostmem.Addr, buf []byte) error {
			return waitDMA(p, func(done func()) error { return f.DMAWrite(fn, addr, buf, done) })
		},
		func(f *Fabric, p *sim.Proc, fn FnID, addr hostmem.Addr, buf []byte) error {
			return f.DMAWriteP(p, fn, addr, buf)
		}},
	{"zero", // a posted write of zeros is what zeroing is
		func(f *Fabric, p *sim.Proc, fn FnID, addr hostmem.Addr, buf []byte) error {
			return waitDMA(p, func(done func()) error { return f.DMAWrite(fn, addr, make([]byte, len(buf)), done) })
		},
		func(f *Fabric, p *sim.Proc, fn FnID, addr hostmem.Addr, buf []byte) error {
			return f.DMAZeroP(p, fn, addr, int64(len(buf)))
		}},
}

func waitDMA(p *sim.Proc, start func(done func()) error) error {
	var err error
	p.Wait(func(done func()) {
		if err = start(done); err != nil {
			done()
		}
	})
	return err
}

// TestProcessFormMatchesCallbackForm holds the two forms of every DMA kind to
// one behaviour: the same completion time, the same number of dispatched
// events, the same counters, the same bytes in host memory and in the
// device's buffer — and a refused call returns on the spot in both.
func TestProcessFormMatchesCallbackForm(t *testing.T) {
	faultPlan := func(sp fault.SiteParams) func(*Fabric) {
		return func(f *Fabric) {
			plan := fault.Plan{Seed: 9}
			plan.Sites[fault.DMARead], plan.Sites[fault.DMAWrite] = sp, sp
			f.SetInjector(fault.NewInjector(plan))
		}
	}
	configs := []struct {
		name    string
		setup   func(*Fabric)
		refused bool
	}{
		{"plain", func(*Fabric) {}, false},
		{"IOMMU reject", func(f *Fabric) { f.IOMMU().Enable() }, true},
		{"injected fault", faultPlan(fault.SiteParams{OneShot: []int64{1}}), true},
		{"injected delay", faultPlan(fault.SiteParams{DelayProb: 1, Delay: 3 * sim.Microsecond}), false},
		{"zero request latency", func(f *Fabric) { f.Params.DMARequestLatency = 0 }, false},
	}
	type outcome struct {
		err             string
		parked          bool
		done            sim.Time
		stepped         int64
		counters, links [5]int64
		host, device    []byte
	}
	run := func(setup func(*Fabric), form func(*Fabric, *sim.Proc, FnID, hostmem.Addr, []byte) error) outcome {
		f, eng, mem := newFabric()
		fn := f.RegisterFunction("dev")
		setup(f)
		addr := mem.MustAlloc(4096, 8)
		if err := mem.Write(addr, bytes.Repeat([]byte{0xA5}, 4096)); err != nil {
			t.Fatal(err)
		}
		o := outcome{device: bytes.Repeat([]byte{0x3C}, 4096), host: make([]byte, 4096)}
		eng.Go("dev", func(p *sim.Proc) {
			at, stepped := p.Now(), eng.Stepped
			if err := form(f, p, fn, addr, o.device); err != nil {
				o.err = err.Error()
			}
			o.parked = p.Now() != at || eng.Stepped != stepped
			o.done = p.Now()
		})
		eng.Run()
		o.stepped = eng.Stepped
		o.counters = [5]int64{f.DMAReads, f.DMAWrites, f.DMAReadBytes, f.DMAWriteBytes, f.DMAFaultsInjected}
		o.links = [5]int64{f.toDev.Transfers, f.toDev.Bytes, f.toHost.Transfers, f.toHost.Bytes}
		if err := mem.Read(addr, o.host); err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, cfg := range configs {
		for _, k := range dmaKinds {
			t.Run(cfg.name+"/"+k.name, func(t *testing.T) {
				cb, proc := run(cfg.setup, k.callback), run(cfg.setup, k.process)
				if !reflect.DeepEqual(cb, proc) {
					t.Errorf("the forms differ:\ncallback %+v\nprocess  %+v", cb, proc)
				}
				if refused := proc.err != ""; refused != cfg.refused || proc.parked == refused {
					t.Errorf("process form: err %q, parked %v; want refused %v and parked only if not", proc.err, proc.parked, cfg.refused)
				}
			})
		}
	}
}

// TestProcessFormBorrowsTheBuffer: a process-form write copies nothing at
// submission — the bytes that land are the buffer's when the posted write
// drains — while the callback form (TestDMAWriteSnapshotsSource) snapshots.
func TestProcessFormBorrowsTheBuffer(t *testing.T) {
	f, eng, mem := newFabric()
	fn := f.RegisterFunction("dev")
	addr := mem.MustAlloc(16, 8)
	buf := []byte{1, 2, 3, 4}
	eng.Go("dev", func(p *sim.Proc) {
		if err := f.DMAWriteP(p, fn, addr, buf); err != nil {
			t.Error(err)
		}
		buf[1] = 77 // the caller's again: must not land
	})
	eng.After(1, func() { buf[0] = 99 }) // in flight: lands
	eng.Run()
	got := make([]byte, 4)
	if err := mem.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{99, 2, 3, 4}; !bytes.Equal(got, want) {
		t.Fatalf("host memory % x, want % x", got, want)
	}
}

// TestProcessFormAllocations: a 4 KB DMAWriteP + DMAReadP allocates its
// scheduled events (one *event and one resume method value for the request
// latency's Sleep, one *event per link transfer) and nothing else — no
// payload-sized object, no closure.
func TestProcessFormAllocations(t *testing.T) {
	f, eng, mem := newFabric()
	fn := f.RegisterFunction("dev")
	addr := mem.MustAlloc(4096, 8)
	buf := make([]byte, 4096)
	var allocs float64
	eng.Go("dev", func(p *sim.Proc) {
		body := func() {
			if f.DMAWriteP(p, fn, addr, buf) != nil || f.DMAReadP(p, fn, addr, buf) != nil {
				t.Error("DMA refused")
			}
		}
		body()
		allocs = testing.AllocsPerRun(200, body)
	})
	eng.Run()
	const ceiling = 4
	if allocs > ceiling {
		t.Errorf("DMAWriteP+DMAReadP of 4 KB allocates %v times, ceiling %d", allocs, ceiling)
	}
	t.Logf("%v allocs per 4 KB DMAWriteP+DMAReadP", allocs)
}
