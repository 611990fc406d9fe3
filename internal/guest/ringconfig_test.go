package guest

import (
	"fmt"
	"reflect"
	"testing"

	"nesc/internal/hostmem"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// recPage is a function register page that only records the MMIO it sees, in
// arrival order: "w <offset>" for a write, "r <offset>" for a read.
type recPage struct{ ops []string }

func (d *recPage) PCIeName() string { return "recording-fn" }
func (d *recPage) MMIORead(off int64, _ int) uint64 {
	d.ops = append(d.ops, fmt.Sprintf("r %#x", off))
	return 64
}
func (d *recPage) MMIOWrite(off int64, _ int, _ uint64) {
	d.ops = append(d.ops, fmt.Sprintf("w %#x", off))
}

// The order of the MMIO a driver issues at construction is part of the event
// schedule every golden output depends on: ring base, ring size and completion
// base queue by queue; then — only with a deadline set — each queue's deadline
// budget in queue order; then the device-size read.
func TestConstructionMMIOSequence(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  RingConfig
	}{
		{"1 queue, no deadline", RingConfig{Entries: 8}},
		{"defaults", RingConfig{}},
		{"1 queue, deadline", RingConfig{Entries: 8, Deadline: 300 * sim.Microsecond}},
		{"4 queues, no deadline", RingConfig{Entries: 8, Queues: 4, PIBlock: 1024, Timeout: sim.Millisecond, RetryMax: 2}},
		{"4 queues, deadline", RingConfig{Entries: 8, Queues: 4, Policy: PolicyLeastOccupied, Deadline: 300 * sim.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			defer eng.Shutdown()
			mem := hostmem.New(1 << 20)
			fab := pcie.New(eng, mem, pcie.DefaultParams())
			page := &recPage{}
			base := fab.MapBAR(page, ring.PageSize)
			var drv *NescDriver
			eng.Go("probe", func(p *sim.Proc) {
				var err error
				drv, err = NewNescDriver(p, eng, NescDriverConfig{Fab: fab, Mem: mem, PageBus: base, Ring: tc.cfg})
				if err != nil {
					t.Error(err)
				}
			})
			eng.Run()
			if drv == nil {
				t.Fatal("driver construction did not finish")
			}
			queues := max(tc.cfg.Queues, 1)
			var want []string
			for q := 0; q < queues; q++ {
				block := int64(ring.QueueRegBase + q*ring.QueueRegStride)
				for _, reg := range []int64{ring.QRegRingBase, ring.QRegRingSize, ring.QRegCplBase} {
					want = append(want, fmt.Sprintf("w %#x", block+reg))
				}
			}
			if tc.cfg.Deadline > 0 {
				for q := 0; q < queues; q++ {
					want = append(want, fmt.Sprintf("w %#x", int64(ring.QueueRegBase+q*ring.QueueRegStride+ring.QRegDeadline)))
				}
			}
			want = append(want, fmt.Sprintf("r %#x", int64(ring.RegDeviceSize)))
			if !reflect.DeepEqual(page.ops, want) {
				t.Errorf("MMIO at construction:\n got  %v\n want %v", page.ops, want)
			}
			// Every queue holds the one settings value, defaults filled in.
			wantCfg := tc.cfg
			wantCfg.Queues = queues
			if wantCfg.Entries == 0 {
				wantCfg.Entries = 128
			}
			if n := drv.MQ().NumQueues(); n != queues {
				t.Fatalf("driver runs %d queues, want %d", n, queues)
			}
			for q, qp := range drv.MQ().Queues() {
				if !reflect.DeepEqual(qp.cfg, wantCfg) || qp.Entries() != wantCfg.Entries {
					t.Errorf("queue %d: settings %+v (%d entries), want %+v", q, qp.cfg, qp.Entries(), wantCfg)
				}
			}
			if drv.MQ().policy != tc.cfg.Policy {
				t.Errorf("steering policy %v, want %v", drv.MQ().policy, tc.cfg.Policy)
			}
		})
	}
}

// A queue total is QueueCounters.Add over the queues. Walk the struct by
// reflection so that a counter added later cannot be left out of the sum.
func TestQueueCountersAddSumsEveryField(t *testing.T) {
	var a, b, sum QueueCounters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("field %s is %s: teach Add and this test about it", av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	sum.Add(&a)
	sum.Add(&b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}
