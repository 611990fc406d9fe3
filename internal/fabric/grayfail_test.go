package fabric

import (
	"bytes"
	"fmt"
	"testing"

	"nesc/internal/guest"
	"nesc/internal/hostmem"
	"nesc/internal/sim"
	"nesc/internal/telemetry"
)

// fakeLeg is a controllable-latency BlockDriver: a flat in-memory store
// served after a settable sleep, so tests can make any leg fast, slow, or
// recovered at will and count exactly where reads land.
type fakeLeg struct {
	name   string
	bs     int
	store  []byte
	lat    sim.Time
	reads  int
	writes int
	// readErr and writeErr, when set, are what every read or write answers
	// with (after lat).
	readErr, writeErr error
}

func newFakeLeg(name string, bs int, blocks int64, lat sim.Time) *fakeLeg {
	return &fakeLeg{name: name, bs: bs, store: make([]byte, blocks*int64(bs)), lat: lat}
}

func (f *fakeLeg) Name() string          { return f.name }
func (f *fakeLeg) BlockSize() int        { return f.bs }
func (f *fakeLeg) CapacityBlocks() int64 { return int64(len(f.store) / f.bs) }
func (f *fakeLeg) MaxBlocksPerReq() int  { return 8 }

func (f *fakeLeg) Submit(p *sim.Proc, write bool, lba int64, buf guest.Buffer) error {
	p.Sleep(f.lat)
	off := lba * int64(f.bs)
	if write {
		f.writes++
		if f.writeErr != nil {
			return f.writeErr
		}
		copy(f.store[off:], buf.Data)
		return nil
	}
	f.reads++
	if f.readErr != nil {
		return f.readErr
	}
	copy(buf.Data, f.store[off:off+int64(len(buf.Data))])
	return nil
}

// mirrorRig is a 3-leg client over fake drivers plus the harness to run a
// simulated process against it.
type mirrorRig struct {
	eng  *sim.Engine
	mem  *hostmem.Memory
	legs []*fakeLeg
	c    *Client
}

func newMirrorRig(t *testing.T, cfg Config, lats ...sim.Time) *mirrorRig {
	t.Helper()
	const bs, blocks = 512, 64
	eng := sim.NewEngine()
	mem := hostmem.New(1 << 20)
	rig := &mirrorRig{eng: eng, mem: mem}
	var reps []*Replica
	for i, lat := range lats {
		leg := newFakeLeg(fmt.Sprintf("leg%d", i), bs, blocks, lat)
		// Distinct per-leg fill so a read's provenance is visible in its
		// bytes; tests that verify content write first.
		for j := range leg.store {
			leg.store[j] = byte(i*131 + j)
		}
		rig.legs = append(rig.legs, leg)
		reps = append(reps, &Replica{Dev: i, Drv: leg})
	}
	c, err := NewClient(eng, mem, cfg, reps, telemetry.Sinks{}, 0)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	rig.c = c
	return rig
}

func (rig *mirrorRig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	done := false
	rig.eng.Go("fabric-test", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	rig.eng.RunUntil(sim.Second) // a process polling for ever fails the test, not hangs it
	rig.eng.Shutdown()
	if !done {
		t.Fatal("fabric test process deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
}

func (rig *mirrorRig) read(p *sim.Proc, lba int64, n int) error {
	buf := make([]byte, n)
	return rig.c.Submit(p, false, lba, guest.Buffer{Data: buf})
}

// TestReadSteeringAvoidsSlowLeg is the EWMA regression: a leg that turns
// slow loses read steering after a single degraded sample, and without
// probe traffic it never wins reads back even once recovered (its estimate
// is stuck — exactly the gap Cfg.ProbeEvery exists to close).
func TestReadSteeringAvoidsSlowLeg(t *testing.T) {
	rig := newMirrorRig(t, Config{}, 10*sim.Microsecond, 10*sim.Microsecond, 10*sim.Microsecond)
	rig.run(t, func(p *sim.Proc) error {
		for i := 0; i < 12; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		// Equal latency ties steer to the first leg.
		served := rig.legs[0].reads
		if served < 9 {
			return fmt.Errorf("expected leg0 to win equal-latency steering, got %d/%d", served, 12)
		}
		rig.legs[0].lat = 1 * sim.Millisecond
		before := rig.legs[0].reads
		for i := 0; i < 20; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		if got := rig.legs[0].reads - before; got != 1 {
			return fmt.Errorf("slow leg served %d reads; EWMA steering should divert after exactly 1", got)
		}
		// Recovery without probes: the stale estimate keeps the leg benched.
		rig.legs[0].lat = 5 * sim.Microsecond
		before = rig.legs[0].reads
		for i := 0; i < 20; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		if got := rig.legs[0].reads - before; got != 0 {
			return fmt.Errorf("recovered leg served %d reads with probing disabled; want 0", got)
		}
		return nil
	})
}

// TestProbeReadsWinBackRecoveredLeg: with ProbeEvery armed, periodic probes
// to the worst-EWMA leg refresh its estimate, so a recovered (now fastest)
// leg decays its stale penalty and wins steering back.
func TestProbeReadsWinBackRecoveredLeg(t *testing.T) {
	rig := newMirrorRig(t, Config{ProbeEvery: 4},
		10*sim.Microsecond, 10*sim.Microsecond, 10*sim.Microsecond)
	rig.run(t, func(p *sim.Proc) error {
		for i := 0; i < 12; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		rig.legs[0].lat = 1 * sim.Millisecond
		for i := 0; i < 12; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		// Recovered and now strictly fastest. The stale 1 ms-tainted estimate
		// decays by one probe sample every 4th read, so winning steering back
		// takes roughly a dozen probes; after that the leg serves the bulk.
		rig.legs[0].lat = 5 * sim.Microsecond
		before := rig.legs[0].reads
		for i := 0; i < 100; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		won := rig.legs[0].reads - before
		if won < 30 {
			return fmt.Errorf("recovered leg won only %d/100 reads back via probes", won)
		}
		if rig.c.ProbeReads == 0 {
			return fmt.Errorf("no probe reads counted")
		}
		st := rig.c.Status()
		if st[0].EWMARead >= st[1].EWMARead {
			return fmt.Errorf("recovered leg's EWMA (%v) never undercut the field (%v)", st[0].EWMARead, st[1].EWMARead)
		}
		return nil
	})
}

// TestHedgedReadCapsStraggler: with hedging armed, a read whose primary leg
// stalls is answered by the speculative second leg at roughly the hedge
// deadline plus one healthy service time — not the straggler's full
// latency — and the delivered bytes are the straggler-free replica's.
func TestHedgedReadCapsStraggler(t *testing.T) {
	rig := newMirrorRig(t, Config{HedgePercentile: 95, HedgeMinDelay: 20 * sim.Microsecond},
		10*sim.Microsecond, 10*sim.Microsecond, 10*sim.Microsecond)
	rig.run(t, func(p *sim.Proc) error {
		want := make([]byte, 512)
		for i := range want {
			want[i] = byte(i * 7)
		}
		if err := rig.c.Submit(p, true, 3, guest.Buffer{Data: want}); err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		// Stall the tie-winning primary leg and read through it.
		rig.legs[0].lat = 1 * sim.Millisecond
		got := make([]byte, 512)
		start := p.Now()
		if err := rig.c.Submit(p, false, 3, guest.Buffer{Data: got}); err != nil {
			return err
		}
		elapsed := p.Now() - start
		if elapsed >= 200*sim.Microsecond {
			return fmt.Errorf("hedged read took %v; the speculative leg should cap it near the deadline", elapsed)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("hedged read returned wrong bytes")
		}
		if rig.c.HedgedReads == 0 || rig.c.HedgeWins == 0 {
			return fmt.Errorf("hedge counters did not move (hedged %d, wins %d)", rig.c.HedgedReads, rig.c.HedgeWins)
		}
		return nil
	})
}

// TestQuarantineAndRejoin: a leg whose windowed read latency blows past
// SlowFactor x its learned baseline is quarantined out of read steering
// (and coupled to Suspect in the fail-stop FSM), then lazily rejoins with a
// reset window once QuarantineDuration passes.
func TestQuarantineAndRejoin(t *testing.T) {
	rig := newMirrorRig(t, Config{
		SlowFactor: 3, SlowWindow: 16, SlowBaseline: 8, SlowMinSamples: 3,
		QuarantineDuration: 2 * sim.Millisecond,
	}, 10*sim.Microsecond, 30*sim.Microsecond, 30*sim.Microsecond)
	rig.run(t, func(p *sim.Proc) error {
		for i := 0; i < 12; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		// 45us is under the 3x-of-30us bar of the other legs' EWMA, so
		// steering keeps using leg0 — but it is 4.5x leg0's learned 10us
		// baseline: exactly the chronic gray failure the detector is for.
		rig.legs[0].lat = 45 * sim.Microsecond
		for i := 0; i < 8; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		if rig.c.Quarantines != 1 {
			return fmt.Errorf("quarantines = %d, want 1", rig.c.Quarantines)
		}
		st := rig.c.Status()
		if !st[0].Quarantined || st[0].State != "suspect" {
			return fmt.Errorf("slow leg not quarantined+suspect: %+v", st[0])
		}
		// While quarantined, reads go elsewhere.
		before := rig.legs[0].reads
		for i := 0; i < 6; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		if rig.legs[0].reads != before {
			return fmt.Errorf("quarantined leg still served reads")
		}
		// Recover, wait out the quarantine, and touch steering again: the
		// leg rejoins lazily on the next pick.
		rig.legs[0].lat = 10 * sim.Microsecond
		p.Sleep(2500 * sim.Microsecond)
		for i := 0; i < 4; i++ {
			if err := rig.read(p, int64(i%8), 512); err != nil {
				return err
			}
		}
		if rig.c.Rejoins != 1 {
			return fmt.Errorf("rejoins = %d, want 1", rig.c.Rejoins)
		}
		if st := rig.c.Status(); st[0].Quarantined {
			return fmt.Errorf("leg still quarantined after window expiry")
		}
		return nil
	})
}
