package guest

import (
	"encoding/binary"
	"errors"
	"testing"

	"nesc/internal/hostmem"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// fakeFn is a minimal BAR-mapped NeSC function for driving the QueuePair
// protocol from the device side, with per-request misbehavior: "ok",
// "silent" (request vanishes), "lostcpl" (sequence number consumed, entry
// never written), "nomsi" (entry written, interrupt lost), "dup" (completed
// twice), "pierr" (completed with StatusIntegrityError), "busy" (completed
// with StatusBusy); "pierr-nomsi" and "busy-nomsi" lose the interrupt too.
type fakeFn struct {
	eng *sim.Engine
	mem *hostmem.Memory
	qp  *QueuePair

	ringBase, cplBase int64
	ringSize          uint32
	consumed          uint32
	cplSeq            uint32

	mode func(id uint32) string
}

func (d *fakeFn) PCIeName() string                 { return "fake-nesc-fn" }
func (d *fakeFn) MMIORead(off int64, _ int) uint64 { return 0 }

func (d *fakeFn) MMIOWrite(off int64, _ int, val uint64) {
	switch off - ring.QueueRegBase { // the rig drives queue 0
	case ring.QRegRingBase:
		d.ringBase = int64(val)
	case ring.QRegRingSize:
		d.ringSize = uint32(val)
		d.consumed, d.cplSeq = 0, 0
	case ring.QRegCplBase:
		d.cplBase = int64(val)
	case ring.QRegDoorbell:
		d.serve(uint32(val))
	}
}

func (d *fakeFn) complete(id uint32) { d.completeWith(id, ring.StatusOK) }

func (d *fakeFn) completeWith(id, status uint32) {
	d.cplSeq++
	entry := make([]byte, ring.CplBytes)
	ring.EncodeCompletion(entry, id, status, d.cplSeq)
	slot := int64((d.cplSeq - 1) % d.ringSize)
	if err := d.mem.Write(d.cplBase+slot*ring.CplBytes, entry); err != nil {
		panic(err)
	}
}

func (d *fakeFn) serve(prod uint32) {
	for d.consumed != prod {
		slot := int64(d.consumed % d.ringSize)
		desc := make([]byte, ring.DescBytes)
		if err := d.mem.Read(d.ringBase+slot*ring.DescBytes, desc); err != nil {
			panic(err)
		}
		d.consumed++
		id := binary.BigEndian.Uint32(desc[4:8])
		mode := "ok"
		if d.mode != nil {
			mode = d.mode(id)
		}
		switch mode {
		case "silent":
		case "lostcpl":
			d.cplSeq++
		case "nomsi":
			d.complete(id)
		case "pierr":
			d.completeWith(id, ring.StatusIntegrityError)
			d.eng.After(sim.Microsecond, d.qp.OnInterrupt)
		case "pierr-nomsi":
			d.completeWith(id, ring.StatusIntegrityError)
		case "busy":
			d.completeWith(id, ring.StatusBusy)
			d.eng.After(sim.Microsecond, d.qp.OnInterrupt)
		case "busy-nomsi":
			d.completeWith(id, ring.StatusBusy)
		case "dup":
			d.complete(id)
			d.complete(id)
			d.eng.After(sim.Microsecond, d.qp.OnInterrupt)
		default:
			d.complete(id)
			d.eng.After(sim.Microsecond, d.qp.OnInterrupt)
		}
	}
}

func newQPRig(t *testing.T) (*sim.Engine, *QueuePair, *fakeFn) {
	t.Helper()
	eng := sim.NewEngine()
	mem := hostmem.New(1 << 20)
	fab := pcie.New(eng, mem, pcie.DefaultParams())
	d := &fakeFn{eng: eng, mem: mem}
	base := fab.MapBAR(d, 0x1000)
	var qp *QueuePair
	eng.Go("setup", func(p *sim.Proc) {
		var err error
		qp, err = newQueuePair(p, eng, mem, fab, base, 0, RingConfig{Entries: 8, SubmitTime: sim.Microsecond})
		if err != nil {
			t.Error(err)
			return
		}
		d.qp = qp
	})
	eng.Run()
	if qp == nil {
		t.Fatal("queue pair construction failed")
	}
	return eng, qp, d
}

// Regression: a doorbell MMIO error after waiter registration must not leak
// the waiters[id] entry.
func TestSubmitDoorbellErrorDropsWaiter(t *testing.T) {
	eng := sim.NewEngine()
	mem := hostmem.New(1 << 20)
	fab := pcie.New(eng, mem, pcie.DefaultParams())
	// Hand-built queue pair whose register page routes nowhere: the doorbell
	// write fails after the descriptor is in the ring.
	qp := &QueuePair{
		eng: eng, mem: mem, fab: fab, pageBus: 0, entries: 8,
		slots:    sim.NewSemaphore(eng, 8),
		waiters:  make(map[uint32]*qpWaiter),
		ringBase: mem.MustAlloc(8*ring.DescBytes, 64),
		cplBase:  mem.MustAlloc(8*ring.CplBytes, 64),
	}
	eng.Go("submitter", func(p *sim.Proc) {
		if _, err := qp.Submit(p, ring.OpRead, 0, 1, 0); err == nil {
			t.Error("doorbell write to unmapped page succeeded")
		}
		if len(qp.waiters) != 0 {
			t.Errorf("%d waiters leaked after doorbell error", len(qp.waiters))
		}
	})
	eng.Run()
	eng.Shutdown()
}

// Regression: a completion whose id has no waiter (duplicate after a retry
// or reset) is counted, not silently ignored.
func TestStaleCompletionCounted(t *testing.T) {
	eng, qp, d := newQPRig(t)
	d.mode = func(uint32) string { return "dup" }
	eng.Go("submitter", func(p *sim.Proc) {
		st, err := qp.Submit(p, ring.OpRead, 0, 1, 0)
		if err != nil || st != ring.StatusOK {
			t.Errorf("submit: status %d err %v", st, err)
		}
	})
	eng.Run()
	eng.Shutdown()
	if qp.StaleCompletions != 1 {
		t.Fatalf("StaleCompletions = %d, want 1", qp.StaleCompletions)
	}
}

func TestTimeoutPollRecoversLostMSI(t *testing.T) {
	eng, qp, d := newQPRig(t)
	qp.cfg.Timeout = 500 * sim.Microsecond
	qp.cfg.RetryMax = 2
	d.mode = func(uint32) string { return "nomsi" }
	eng.Go("submitter", func(p *sim.Proc) {
		st, err := qp.Submit(p, ring.OpRead, 0, 1, 0)
		if err != nil || st != ring.StatusOK {
			t.Errorf("submit: status %d err %v", st, err)
		}
	})
	eng.Run()
	eng.Shutdown()
	if qp.Timeouts != 1 || qp.PolledCompletions != 1 || qp.Resubmits != 0 {
		t.Fatalf("timeouts=%d polled=%d resubmits=%d, want 1/1/0",
			qp.Timeouts, qp.PolledCompletions, qp.Resubmits)
	}
}

func TestTimeoutResubmitRecoversLostRequest(t *testing.T) {
	eng, qp, d := newQPRig(t)
	qp.cfg.Timeout = 500 * sim.Microsecond
	qp.cfg.RetryMax = 2
	d.mode = func(id uint32) string {
		if id == 1 {
			return "silent"
		}
		return "ok"
	}
	eng.Go("submitter", func(p *sim.Proc) {
		st, err := qp.Submit(p, ring.OpRead, 0, 1, 0)
		if err != nil || st != ring.StatusOK {
			t.Errorf("submit: status %d err %v", st, err)
		}
	})
	eng.Run()
	eng.Shutdown()
	if qp.Resubmits != 1 {
		t.Fatalf("Resubmits = %d, want 1", qp.Resubmits)
	}
	if len(qp.waiters) != 0 {
		t.Fatalf("%d waiters left behind", len(qp.waiters))
	}
}

func TestTimeoutBudgetExhausted(t *testing.T) {
	eng, qp, d := newQPRig(t)
	qp.cfg.Timeout = 500 * sim.Microsecond
	qp.cfg.RetryMax = 1
	d.mode = func(uint32) string { return "silent" }
	eng.Go("submitter", func(p *sim.Proc) {
		_, err := qp.Submit(p, ring.OpRead, 0, 1, 0)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("submit returned %v, want ErrTimeout", err)
		}
	})
	eng.Run()
	eng.Shutdown()
	if qp.Timeouts != 2 { // original + one resubmission
		t.Fatalf("Timeouts = %d, want 2", qp.Timeouts)
	}
}

// A lost completion-ring write leaves a permanent sequence gap; the poll
// path must skip over it or the ring wedges forever.
func TestSeqGapRecovery(t *testing.T) {
	eng, qp, d := newQPRig(t)
	qp.cfg.Timeout = 500 * sim.Microsecond
	qp.cfg.RetryMax = 3
	d.mode = func(id uint32) string {
		if id == 1 {
			return "lostcpl"
		}
		return "ok"
	}
	eng.Go("submitter", func(p *sim.Proc) {
		st, err := qp.Submit(p, ring.OpRead, 0, 1, 0)
		if err != nil || st != ring.StatusOK {
			t.Errorf("submit: status %d err %v", st, err)
		}
	})
	eng.Run()
	eng.Shutdown()
	if qp.SeqGaps != 1 || qp.PolledCompletions != 1 {
		t.Fatalf("SeqGaps=%d Polled=%d, want 1/1", qp.SeqGaps, qp.PolledCompletions)
	}
}

func TestRecoverAbortsAndRearms(t *testing.T) {
	eng, qp, d := newQPRig(t)
	d.mode = func(id uint32) string {
		if id == 1 {
			return "silent"
		}
		return "ok"
	}
	eng.Go("submitter", func(p *sim.Proc) {
		_, err := qp.Submit(p, ring.OpRead, 0, 1, 0)
		if !errors.Is(err, ErrReset) {
			t.Errorf("aborted submit returned %v, want ErrReset", err)
		}
	})
	eng.Go("resetter", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		if err := qp.Recover(p); err != nil {
			t.Error(err)
			return
		}
		// The recovered queue pair carries fresh I/O.
		st, err := qp.Submit(p, ring.OpRead, 0, 1, 0)
		if err != nil || st != ring.StatusOK {
			t.Errorf("post-recover submit: status %d err %v", st, err)
		}
	})
	eng.Run()
	eng.Shutdown()
	if qp.Resets != 1 || qp.Aborts != 1 {
		t.Fatalf("resets=%d aborts=%d, want 1/1", qp.Resets, qp.Aborts)
	}
	if len(qp.waiters) != 0 {
		t.Fatalf("%d waiters survived recovery", len(qp.waiters))
	}
}

// finalVerdict must surface the first root cause of a failed submission
// ladder: an integrity failure on any attempt wins over the final
// attempt's own timeout or abort.
func TestFinalVerdictRootCause(t *testing.T) {
	cases := []struct {
		name                                      string
		lastAborted, lastPIBad, lastBusy, rootBad bool
		rootStatus                                uint32
		wantStatus                                uint32
		wantErr                                   error
		wantOverride                              bool
	}{
		{name: "pure timeout", wantErr: ErrTimeout},
		{name: "pure abort", lastAborted: true, wantErr: ErrReset},
		{name: "pure busy", lastBusy: true, wantStatus: ring.StatusBusy},
		{
			name:     "integrity root then final busy",
			lastBusy: true, rootBad: true, rootStatus: ring.StatusIntegrityError,
			wantStatus: ring.StatusIntegrityError, wantOverride: true,
		},
		{
			name:    "device integrity root then timeouts",
			rootBad: true, rootStatus: ring.StatusIntegrityError,
			wantStatus: ring.StatusIntegrityError, wantOverride: true,
		},
		{
			name:    "payload mismatch root then timeouts",
			rootBad: true, rootStatus: ring.StatusOK,
			wantErr: ring.ErrIntegrity, wantOverride: true,
		},
		{
			name:        "integrity root then final abort",
			lastAborted: true, rootBad: true, rootStatus: ring.StatusIntegrityError,
			wantStatus: ring.StatusIntegrityError, wantOverride: true,
		},
		{
			name:      "final attempt is the integrity failure",
			lastPIBad: true, rootBad: true, rootStatus: ring.StatusIntegrityError,
			wantStatus: ring.StatusIntegrityError, wantOverride: false,
		},
	}
	for _, tc := range cases {
		st, err, over := finalVerdict(tc.lastAborted, tc.lastPIBad, tc.lastBusy, tc.rootBad, tc.rootStatus)
		if st != tc.wantStatus || !errors.Is(err, tc.wantErr) || over != tc.wantOverride {
			t.Errorf("%s: finalVerdict = (%d, %v, %v), want (%d, %v, %v)",
				tc.name, st, err, over, tc.wantStatus, tc.wantErr, tc.wantOverride)
		}
	}
}

// Regression: a request whose first attempt fails the device-side integrity
// check and whose resubmissions then vanish must surface the integrity
// status — not the last attempt's timeout — and count the override.
func TestRootCauseSurvivesRetryLadder(t *testing.T) {
	eng, qp, d := newQPRig(t)
	qp.cfg.Timeout = 500 * sim.Microsecond
	qp.cfg.RetryMax = 2
	d.mode = func(id uint32) string {
		if id == 1 {
			return "pierr"
		}
		return "silent"
	}
	eng.Go("submitter", func(p *sim.Proc) {
		st, err := qp.Submit(p, ring.OpWrite, 0, 1, 0)
		if err != nil || st != ring.StatusIntegrityError {
			t.Errorf("submit: status %d err %v, want StatusIntegrityError", st, err)
		}
	})
	eng.Run()
	eng.Shutdown()
	if qp.PIWriteErrors != 1 {
		t.Fatalf("PIWriteErrors = %d, want 1", qp.PIWriteErrors)
	}
	if qp.Timeouts != 2 { // both resubmissions vanished
		t.Fatalf("Timeouts = %d, want 2", qp.Timeouts)
	}
	if qp.RootCauseOverrides != 1 {
		t.Fatalf("RootCauseOverrides = %d, want 1", qp.RootCauseOverrides)
	}
}

// A delivered completion is classified the same way however it was found:
// by the interrupt, or by the poll a timeout falls back to when the
// interrupt was lost. Busy and integrity answers are resubmitted (and
// counted); anything else ends the submission.
func TestCompletionClassifiedAlikeAfterInterruptAndPoll(t *testing.T) {
	for _, tc := range []struct {
		first                  string // the device's answer to the first attempt
		busy, piErr, resubmits int64
	}{
		{"ok", 0, 0, 0},
		{"busy", 1, 0, 1},
		{"pierr", 0, 1, 1},
	} {
		for _, polled := range []bool{false, true} {
			name, mode, found := tc.first+" after interrupt", tc.first, int64(0)
			if polled {
				name, mode, found = tc.first+" after poll", tc.first+"-nomsi", 1
				if tc.first == "ok" {
					mode = "nomsi"
				}
			}
			t.Run(name, func(t *testing.T) {
				eng, qp, d := newQPRig(t)
				qp.cfg.Timeout = 500 * sim.Microsecond
				qp.cfg.RetryMax = 2
				d.mode = func(id uint32) string {
					if id == 1 {
						return mode
					}
					return "ok"
				}
				eng.Go("submitter", func(p *sim.Proc) {
					st, err := qp.Submit(p, ring.OpWrite, 0, 1, 0)
					if err != nil || st != ring.StatusOK {
						t.Errorf("submit: status %d err %v", st, err)
					}
				})
				eng.Run()
				eng.Shutdown()
				if qp.BusyRejects != tc.busy || qp.PIWriteErrors != tc.piErr || qp.Resubmits != tc.resubmits {
					t.Errorf("busy=%d piErrors=%d resubmits=%d, want %d/%d/%d",
						qp.BusyRejects, qp.PIWriteErrors, qp.Resubmits, tc.busy, tc.piErr, tc.resubmits)
				}
				if qp.Timeouts != found || qp.PolledCompletions != found {
					t.Errorf("timeouts=%d polled=%d, want %d/%d", qp.Timeouts, qp.PolledCompletions, found, found)
				}
			})
		}
	}
}
