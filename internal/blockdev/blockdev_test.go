package blockdev

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"nesc/internal/fault"
	"nesc/internal/sim"
)

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(1024, 16)
	if s.BlockSize() != 1024 || s.NumBlocks() != 16 {
		t.Fatalf("geometry %d/%d", s.BlockSize(), s.NumBlocks())
	}
	src := bytes.Repeat([]byte{0xab}, 2048)
	if err := s.WriteBlocks(3, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2048)
	if err := s.ReadBlocks(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("round trip mismatch")
	}
	// Neighbors untouched.
	one := make([]byte, 1024)
	if err := s.ReadBlocks(2, one); err != nil {
		t.Fatal(err)
	}
	for _, b := range one {
		if b != 0 {
			t.Fatal("write spilled into neighboring block")
		}
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore(512, 8)
	if err := s.ReadBlocks(0, make([]byte, 100)); err == nil {
		t.Fatal("non-block-multiple buffer accepted")
	}
	if err := s.ReadBlocks(7, make([]byte, 1024)); err == nil {
		t.Fatal("read past end accepted")
	}
	if err := s.WriteBlocks(-1, make([]byte, 512)); err == nil {
		t.Fatal("negative LBA accepted")
	}
	if err := s.ReadBlocks(6, make([]byte, 4*512)); err == nil {
		t.Fatal("oversized read accepted")
	}
	if err := s.ReadBlocks(2, make([]byte, 2*512)); err != nil {
		t.Fatalf("two-block read: %v", err)
	}
}

func TestStorePropertyRandomIO(t *testing.T) {
	f := func(ops []struct {
		LBA  uint8
		Seed uint8
	}) bool {
		s := NewStore(64, 32)
		shadow := make([]byte, 64*32)
		for _, op := range ops {
			lba := int64(op.LBA % 32)
			blk := bytes.Repeat([]byte{op.Seed}, 64)
			if err := s.WriteBlocks(lba, blk); err != nil {
				return false
			}
			copy(shadow[lba*64:], blk)
		}
		got := make([]byte, 64*32)
		if err := s.ReadBlocks(0, got); err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMediumTiming(t *testing.T) {
	eng := sim.NewEngine()
	s := NewStore(1024, 1024)
	p := MediumParams{
		ReadLatency:   sim.Microsecond,
		WriteLatency:  sim.Microsecond,
		ReadBandwidth: 1e9, WriteBandwidth: 1e9,
	}
	m := NewMedium(eng, s, p)
	buf := make([]byte, 100*1024)
	var doneAt sim.Time
	eng.Go("io", func(p *sim.Proc) {
		if err := m.ReadP(p, 0, buf); err != nil {
			t.Error(err)
		}
		doneAt = eng.Now()
	})
	eng.Run()
	// 100KB at 1GB/s = 102.4us + 1us latency.
	want := sim.BytesTime(int64(len(buf)), 1e9) + sim.Microsecond
	if doneAt != want {
		t.Fatalf("read done at %v, want %v", doneAt, want)
	}
	if m.Reads != 1 || m.ReadBytes != int64(len(buf)) {
		t.Fatalf("counters: %d ops, %d bytes", m.Reads, m.ReadBytes)
	}
}

func TestMediumDataIntegrity(t *testing.T) {
	eng := sim.NewEngine()
	s := NewStore(512, 64)
	m := NewMedium(eng, s, DefaultMediumParams())
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 4096)
	rng.Read(src)
	eng.Go("io", func(p *sim.Proc) {
		if err := m.WriteP(p, 8, src); err != nil {
			t.Error(err)
		}
		got := make([]byte, 4096)
		if err := m.ReadP(p, 8, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, src) {
			t.Error("medium round trip mismatch")
		}
	})
	eng.Run()
}

// TestMediumWriteSnapshot holds WriteP's buffer contract: the caller is parked
// until the medium has absorbed the bytes and lends its buffer for exactly
// that long. What lands is the buffer at absorption; a mutation made after
// WriteP returns never reaches the store.
func TestMediumWriteSnapshot(t *testing.T) {
	eng := sim.NewEngine()
	s := NewStore(512, 8)
	m := NewMedium(eng, s, DefaultMediumParams())
	buf := bytes.Repeat([]byte{7}, 512)
	eng.Go("io", func(p *sim.Proc) {
		if err := m.WriteP(p, 0, buf); err != nil {
			t.Error(err)
		}
		buf[1] = 55 // the caller's again
	})
	eng.After(1, func() { buf[0] = 99 }) // in flight, before absorption
	eng.Run()
	got := make([]byte, 512)
	if err := s.ReadBlocks(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 99 || got[1] != 7 {
		t.Fatalf("store holds % x, want the buffer as it stood at absorption (63 07)", got[:2])
	}
	if len(s.VerifyGuards()) != 0 {
		t.Fatal("guard tag does not cover the bytes that landed")
	}
}

// TestMediumAccessAllocations: a WriteP+ReadP pair allocates its two port
// events and nothing payload-sized (one fewer than when WriteP snapshotted).
func TestMediumAccessAllocations(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, NewStore(1024, 8), DefaultMediumParams())
	buf := make([]byte, 4096)
	var allocs float64
	eng.Go("io", func(p *sim.Proc) {
		body := func() {
			if m.WriteP(p, 0, buf) != nil || m.ReadP(p, 0, buf) != nil {
				t.Error("medium access failed")
			}
		}
		body()
		allocs = testing.AllocsPerRun(200, body)
	})
	eng.Run()
	const ceiling = 2
	if allocs > ceiling {
		t.Errorf("WriteP+ReadP of 4 KB allocates %v times, ceiling %d", allocs, ceiling)
	}
	t.Logf("%v allocs per 4 KB WriteP+ReadP", allocs)
}

func TestMediumErrorsPropagate(t *testing.T) {
	eng := sim.NewEngine()
	s := NewStore(512, 8)
	m := NewMedium(eng, s, DefaultMediumParams())
	eng.Go("io", func(p *sim.Proc) {
		if err := m.WriteP(p, 100, make([]byte, 512)); err == nil {
			t.Error("out-of-range write accepted")
		}
		if err := m.ReadP(p, 100, make([]byte, 512)); err == nil {
			t.Error("ReadP out-of-range accepted")
		}
	})
	eng.Run()
}

func TestMediumThrottle(t *testing.T) {
	// Halving bandwidth must roughly double streaming time — the Figure 2
	// mechanism.
	elapsed := func(bw float64) sim.Time {
		eng := sim.NewEngine()
		s := NewStore(1024, 4096)
		m := NewMedium(eng, s, MediumParams{ReadBandwidth: bw, WriteBandwidth: bw})
		buf := make([]byte, 1<<20)
		var doneAt sim.Time
		eng.Go("io", func(p *sim.Proc) {
			if err := m.WriteP(p, 0, buf); err != nil {
				t.Error(err)
			}
			doneAt = eng.Now()
		})
		eng.Run()
		return doneAt
	}
	fast := elapsed(2e9)
	slow := elapsed(1e9)
	ratio := float64(slow) / float64(fast)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("throttle ratio = %.2f, want ~2", ratio)
	}
}

func TestMediumConcurrentOpsSerialize(t *testing.T) {
	eng := sim.NewEngine()
	s := NewStore(1024, 1024)
	m := NewMedium(eng, s, MediumParams{ReadBandwidth: 1e9, WriteBandwidth: 1e9})
	var first, second sim.Time
	buf := make([]byte, 100*1024)
	read := func(buf []byte, doneAt *sim.Time) {
		eng.Go("io", func(p *sim.Proc) {
			if err := m.ReadP(p, 0, buf); err != nil {
				t.Error(err)
			}
			*doneAt = eng.Now()
		})
	}
	read(buf, &first)
	read(make([]byte, 100*1024), &second)
	eng.Run()
	if second < first*19/10 {
		t.Fatalf("reads did not serialize: %v then %v", first, second)
	}
}

func TestMediumFaultInjection(t *testing.T) {
	eng := sim.NewEngine()
	s := NewStore(512, 64)
	m := NewMedium(eng, s, DefaultMediumParams())
	plan := fault.Plan{Seed: 3}
	plan.Sites[fault.MediumWrite] = fault.SiteParams{OneShot: []int64{1}}
	plan.Sites[fault.MediumRead] = fault.SiteParams{OneShot: []int64{2}}
	m.SetInjector(fault.NewInjector(plan))
	src := bytes.Repeat([]byte{0xAB}, 512)
	eng.Go("io", func(p *sim.Proc) {
		// Write 1 faults and must leave the store untouched.
		if err := m.WriteP(p, 4, src); !IsMediumError(err) {
			t.Errorf("faulted write returned %v, want medium error", err)
		}
		got := make([]byte, 512)
		if err := m.ReadP(p, 4, got); err != nil { // read 1 is clean
			t.Error(err)
		}
		if !bytes.Equal(got, make([]byte, 512)) {
			t.Error("faulted write modified the store")
		}
		// Read 2 faults even though the data is intact.
		if err := m.WriteP(p, 4, src); err != nil { // write 2 is clean
			t.Error(err)
		}
		if err := m.ReadP(p, 4, got); !IsMediumError(err) {
			t.Errorf("faulted read returned %v, want medium error", err)
		}
		// Read 3 succeeds and sees the write-2 data.
		if err := m.ReadP(p, 4, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, src) {
			t.Error("post-fault read mismatch")
		}
	})
	eng.Run()
	if m.ReadFaults != 1 || m.WriteFaults != 1 {
		t.Fatalf("fault counters: reads=%d writes=%d", m.ReadFaults, m.WriteFaults)
	}
}

func TestMediumInjectedDelay(t *testing.T) {
	elapsed := func(delay sim.Time) sim.Time {
		eng := sim.NewEngine()
		s := NewStore(512, 8)
		m := NewMedium(eng, s, MediumParams{ReadBandwidth: 1e9, WriteBandwidth: 1e9})
		if delay > 0 {
			plan := fault.Plan{Seed: 5}
			plan.Sites[fault.MediumRead] = fault.SiteParams{DelayProb: 1.0, Delay: delay}
			m.SetInjector(fault.NewInjector(plan))
		}
		var doneAt sim.Time
		eng.Go("io", func(p *sim.Proc) {
			if err := m.ReadP(p, 0, make([]byte, 512)); err != nil {
				t.Error(err)
			}
			doneAt = eng.Now()
		})
		eng.Run()
		return doneAt
	}
	base := elapsed(0)
	slow := elapsed(40 * sim.Microsecond)
	if slow != base+40*sim.Microsecond {
		t.Fatalf("injected delay: base=%v slow=%v", base, slow)
	}
}
