package nesc

import (
	"slices"
	"testing"
	"time"

	"nesc/internal/fault"
	"nesc/internal/sim"
)

// Every injection site the fault package defines is consulted by real
// operations and fired by the armed plan of at least one soak row; a new
// Site fails this until some row reaches it.
func TestFaultSiteTableCoverage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build runs every row once, in TestSoak")
	}
	var ops, faults [fault.NumSites]int64
	for _, row := range soakRows {
		res := runSoak(t, row, row.faults.plan(row.seed))
		for site := range ops {
			ops[site] += res.ops[site]
			faults[site] += res.faults[site]
		}
	}
	for site := fault.Site(0); site < fault.NumSites; site++ {
		switch {
		case ops[site] == 0:
			t.Errorf("site %-16s unreachable: no operation ever consulted it", site)
		case faults[site] == 0:
			t.Errorf("site %-16s inert: %d ops consulted it but no row's plan fired it", site, ops[site])
		default:
			t.Logf("site %-16s ops=%-6d faults=%d", site, ops[site], faults[site])
		}
	}
}

// TestFaultSiteDelayTable classifies every fault site by whether it honors
// Decision.Delay, and proves it for the ones that do: a plan with DelayProb 1
// on exactly that site must tick its Delays counter and stretch the cas row —
// sparse tenants on the lazy-allocation path plus seal/fork/release churn on
// the remote tier — past its fault-free virtual time. Corruption sites flip
// bits instead of stalling and the device-scoped sites model availability, not
// latency; a new enum entry fails the test until it is classified here.
func TestFaultSiteDelayTable(t *testing.T) {
	delayMeaningful := map[fault.Site]bool{
		fault.MediumRead:         true,
		fault.MediumWrite:        true,
		fault.DMARead:            true,
		fault.DMAWrite:           true,
		fault.MSI:                true,
		fault.MissHandler:        true,
		fault.MediumCorruptRead:  false,
		fault.MediumCorruptWrite: false,
		fault.DMACorrupt:         false,
		fault.DeviceKill:         false,
		fault.DevicePartition:    false,
		fault.RemoteFetch:        true,
		fault.RemoteStore:        true,
	}
	for site := fault.Site(0); site < fault.NumSites; site++ {
		if _, ok := delayMeaningful[site]; !ok {
			t.Fatalf("site %s not classified: add it to the delay table", site)
		}
	}
	row := soakRows[slices.IndexFunc(soakRows, func(r soakRow) bool { return r.name == "cas" })]
	row.rounds = 4
	baseline := runSoak(t, row, &FaultPlan{Seed: 0xDE1A7}).stats.VirtualTime
	if baseline == 0 {
		t.Fatal("the fault-free run took no virtual time")
	}
	const extra = 100 * time.Microsecond
	for site, meaningful := range delayMeaningful {
		if !meaningful {
			continue
		}
		t.Run(site.String(), func(t *testing.T) {
			plan := &FaultPlan{Seed: 0xDE1A7}
			plan.Sites[site] = FaultSiteParams{DelayProb: 1, Delay: sim.Time(extra)}
			res := runSoak(t, row, plan)
			if res.delays[site] == 0 {
				t.Fatalf("site %s: DelayProb=1 plan never injected a delay", site)
			}
			if res.stats.VirtualTime <= baseline {
				t.Fatalf("site %s: %d injected delays did not stretch the run (baseline %v, delayed %v)",
					site, res.delays[site], baseline, res.stats.VirtualTime)
			}
			t.Logf("site %-14s delays=%-5d baseline=%v delayed=%v", site, res.delays[site], baseline, res.stats.VirtualTime)
		})
	}
}
