// Package fault is the platform's seeded, deterministic fault-injection
// engine. A Plan names the faults a simulation should experience — per-site
// probabilities, one-shot triggers, injected delays, and latent medium
// sectors — and an Injector turns the plan into per-operation decisions.
//
// Determinism is the whole point: the simulation kernel is single-threaded
// and event-ordered, every injection site draws from its own PRNG stream
// derived from the plan seed, and no wall-clock state is consulted, so the
// same seed always produces the identical fault sequence. A chaos run that
// corrupts data or deadlocks a submitter is therefore replayable bit-exactly
// for debugging.
//
// The injector hooks the three I/O boundaries of the platform:
//
//   - blockdev.Medium — transient and latent sector errors on reads and
//     writes (latent sectors persist until successfully rewritten);
//   - pcie.Fabric — DMA TLP faults (the transfer is rejected at the
//     requester) and dropped or delayed MSIs;
//   - the hypervisor miss handler — slow or failing lazy allocation.
//
// A nil *Injector is valid everywhere and decides "no fault" at zero cost,
// so fault-free simulations pay nothing.
package fault

import (
	"fmt"
	"strings"

	"nesc/internal/sim"
)

// Site identifies one injection point.
type Site int

// The injection sites, in boundary order.
const (
	MediumRead Site = iota
	MediumWrite
	DMARead
	DMAWrite
	MSI
	MissHandler
	// Silent-corruption sites: instead of failing the operation these
	// bit-flip its payload, so only integrity metadata can catch them.
	MediumCorruptRead
	MediumCorruptWrite
	DMACorrupt
	// Device-scoped sites for multi-device fabrics. A DeviceKill fault
	// latches the accessed device dead: every subsequent operation on it
	// fails until ReviveDevice. A DevicePartition fault makes the device
	// unreachable for Plan.PartitionDuration and then heals on its own —
	// a link flap rather than a dead controller.
	DeviceKill
	DevicePartition
	// Remote-tier sites for the content-addressed store (cas). RemoteFetch
	// covers GETs from the simulated object tier (chunk materialization);
	// RemoteStore covers PUTs (sealing). Both support delay injection — the
	// remote tier is a network service, so chronic slowness is its most
	// realistic failure shape.
	RemoteFetch
	RemoteStore
	NumSites
)

func (s Site) String() string {
	switch s {
	case MediumRead:
		return "medium-read"
	case MediumWrite:
		return "medium-write"
	case DMARead:
		return "dma-read"
	case DMAWrite:
		return "dma-write"
	case MSI:
		return "msi"
	case MissHandler:
		return "miss-handler"
	case MediumCorruptRead:
		return "corrupt-read"
	case MediumCorruptWrite:
		return "corrupt-write"
	case DMACorrupt:
		return "dma-corrupt"
	case DeviceKill:
		return "device-kill"
	case DevicePartition:
		return "device-partition"
	case RemoteFetch:
		return "remote-fetch"
	case RemoteStore:
		return "remote-store"
	default:
		return fmt.Sprintf("Site(%d)", int(s))
	}
}

// SiteParams configures one site's fault behavior.
type SiteParams struct {
	// Prob is the per-operation fault probability in [0, 1].
	Prob float64
	// OneShot lists 1-based operation ordinals that fault unconditionally
	// (deterministic triggers for targeted tests).
	OneShot []int64
	// DelayProb is the per-operation probability of injecting Delay extra
	// latency (the operation still succeeds unless it also faulted).
	DelayProb float64
	// Delay is the injected extra latency.
	Delay sim.Time
}

// Plan is a complete, reproducible fault schedule.
type Plan struct {
	// Seed derives every site's PRNG stream.
	Seed uint64
	// Sites holds the per-site parameters, indexed by Site.
	Sites [NumSites]SiteParams
	// LatentSectors are medium LBAs that are bad from the start: reads fail
	// until the sector is successfully rewritten.
	LatentSectors []int64
	// LatentProb is the probability that a faulted medium read latches the
	// first LBA of the access as a latent bad sector.
	LatentProb float64
	// CorruptSectors are medium LBAs that hold silently corrupted data from
	// the start: reads return bit-flipped payloads (no error) until the
	// sector is successfully rewritten. Only integrity metadata detects them.
	CorruptSectors []int64
	// PartitionDuration is how long a DevicePartition fault keeps the
	// device unreachable (default 2ms when the site is armed).
	PartitionDuration sim.Time
	// Degradations are fail-slow profiles armed from the start: devices that
	// turn chronically slow mid-run instead of failing loudly. Profiles draw
	// no randomness — the extra latency is pure ramp arithmetic over virtual
	// time — so arming one never perturbs any other site's fault sequence.
	Degradations []Degradation
}

// Degradation is one persistent fail-slow profile: from Start the named
// device's per-operation latency grows — linearly over Ramp — until the full
// degradation holds, and stays degraded for Duration (0 = forever). The
// slowdown has a multiplicative half (Factor scales the operation's base
// service time) and an additive half (Extra flat latency per operation);
// either alone suffices. Unlike SiteParams.Delay this is chronic, not
// one-shot: every operation in the window pays, which is exactly the gray
// failure a fail-stop detector cannot see.
type Degradation struct {
	// Device is the target device index (blockdev.Medium.DeviceIndex).
	Device int
	// Start is when the degradation begins.
	Start sim.Time
	// Ramp is how long the slowdown takes to reach full strength (0 = step).
	Ramp sim.Time
	// Duration bounds the degraded window measured from Start (0 = forever).
	Duration sim.Time
	// Factor multiplies the operation's base latency at full strength
	// (e.g. 4.0 = 4x slower). Values <= 1 contribute nothing.
	Factor float64
	// Extra is flat added latency per operation at full strength.
	Extra sim.Time
}

// Decision is the injector's verdict for one operation.
type Decision struct {
	// Fault fails the operation.
	Fault bool
	// Delay is extra latency to add (independently of Fault).
	Delay sim.Time
}

// MediumDecision is the verdict for one medium access: the loud half
// (Decision) plus the silent half — blocks whose payload must be returned
// bit-flipped. The store keeps the true bytes; corruption is applied on the
// way out, which is what lets a later scrub recover the sector.
type MediumDecision struct {
	Decision
	// CorruptBlocks lists LBAs within the access whose read payload must be
	// bit-flipped (persistently latched sectors plus transient read flips).
	CorruptBlocks []int64
}

// Injector executes a Plan. Not safe for concurrent use — like the rest of
// the simulation it relies on the engine's single-threaded hand-off.
type Injector struct {
	plan    Plan
	streams [NumSites]uint64
	ops     [NumSites]int64
	faults  [NumSites]int64
	delays  [NumSites]int64
	latent  map[int64]struct{}
	corrupt map[int64]struct{}
	// killed latches dead devices; partitioned maps a device to the virtual
	// time its current partition window ends.
	killed      map[int]struct{}
	partitioned map[int]sim.Time
	// degr holds the live fail-slow profiles (plan-armed plus runtime
	// Degrade calls), in arming order.
	degr []Degradation

	// LatentHits counts reads that failed on a latent sector; LatentAdded
	// counts sectors latched latent by a faulted read; LatentCleared counts
	// sectors repaired by a successful rewrite.
	LatentHits, LatentAdded, LatentCleared int64
	// CorruptHits counts read blocks returned corrupted from a latched
	// sector; CorruptAdded counts sectors latched corrupt by a corrupt-write
	// fault; CorruptCleared counts sectors healed by a successful rewrite.
	CorruptHits, CorruptAdded, CorruptCleared int64
	// DeviceKills counts kill latches (injected and explicit); DeviceRevives
	// counts explicit revives; PartitionHits counts operations rejected
	// because their device was killed or inside a partition window.
	DeviceKills, DeviceRevives, PartitionHits int64
	// DegradedOps counts operations that paid fail-slow latency;
	// DegradedTime totals the extra latency injected by degradation profiles.
	DegradedOps  int64
	DegradedTime sim.Time
}

// NewInjector compiles a plan into a ready injector.
func NewInjector(plan Plan) *Injector {
	in := &Injector{
		plan:        plan,
		latent:      make(map[int64]struct{}),
		corrupt:     make(map[int64]struct{}),
		killed:      make(map[int]struct{}),
		partitioned: make(map[int]sim.Time),
	}
	if in.plan.PartitionDuration <= 0 {
		in.plan.PartitionDuration = 2 * sim.Millisecond
	}
	for s := Site(0); s < NumSites; s++ {
		// Distinct, seed-derived stream per site so decisions at one site
		// never perturb another site's sequence.
		in.streams[s] = plan.Seed ^ (uint64(s)+1)*0x9e3779b97f4a7c15
	}
	for _, lba := range plan.LatentSectors {
		in.latent[lba] = struct{}{}
	}
	for _, lba := range plan.CorruptSectors {
		in.corrupt[lba] = struct{}{}
	}
	in.degr = append(in.degr, plan.Degradations...)
	return in
}

// splitmix64 advances a stream and returns the next 64 uniform bits.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rand draws a uniform float in [0, 1) from site s's stream.
func (in *Injector) rand(s Site) float64 {
	return float64(splitmix64(&in.streams[s])>>11) / (1 << 53)
}

// Decide draws one verdict for an operation at site s. Safe on a nil
// receiver (never faults, never delays).
func (in *Injector) Decide(s Site) Decision {
	if in == nil {
		return Decision{}
	}
	sp := &in.plan.Sites[s]
	in.ops[s]++
	var d Decision
	for _, shot := range sp.OneShot {
		if shot == in.ops[s] {
			d.Fault = true
			break
		}
	}
	if !d.Fault && sp.Prob > 0 && in.rand(s) < sp.Prob {
		d.Fault = true
	}
	if sp.DelayProb > 0 && in.rand(s) < sp.DelayProb {
		d.Delay = sp.Delay
		in.delays[s]++
	}
	if d.Fault {
		in.faults[s]++
	}
	return d
}

// MediumAccess decides one medium operation covering blocks [lba,
// lba+blocks). Reads additionally fail on latent sectors; a successful write
// repairs any latent (and silently corrupt) sectors it covers. Reads of
// latched-corrupt sectors, and reads hit by a transient corrupt-read fault,
// report those blocks in CorruptBlocks — the operation itself succeeds.
// A corrupt-write fault lets the operation "succeed" but latches its first
// LBA as persistently corrupt. Safe on a nil receiver.
func (in *Injector) MediumAccess(write bool, lba, blocks int64) MediumDecision {
	if in == nil {
		return MediumDecision{}
	}
	site := MediumRead
	if write {
		site = MediumWrite
	}
	// The loud half draws exactly as before the corruption sites existed, so
	// pre-existing fault schedules replay bit-identically.
	d := MediumDecision{Decision: in.Decide(site)}
	if write {
		if !d.Fault {
			for b := lba; b < lba+blocks; b++ {
				if _, ok := in.latent[b]; ok {
					delete(in.latent, b)
					in.LatentCleared++
				}
				if _, ok := in.corrupt[b]; ok {
					delete(in.corrupt, b)
					in.CorruptCleared++
				}
			}
			if cd := in.Decide(MediumCorruptWrite); cd.Fault {
				if _, ok := in.corrupt[lba]; !ok {
					in.corrupt[lba] = struct{}{}
					in.CorruptAdded++
				}
			}
		}
		return d
	}
	for b := lba; b < lba+blocks; b++ {
		if _, ok := in.latent[b]; ok {
			d.Fault = true
			in.LatentHits++
			break
		}
	}
	if d.Fault && in.plan.LatentProb > 0 && in.rand(MediumRead) < in.plan.LatentProb {
		if _, ok := in.latent[lba]; !ok {
			in.latent[lba] = struct{}{}
			in.LatentAdded++
		}
	}
	if !d.Fault {
		for b := lba; b < lba+blocks; b++ {
			if _, ok := in.corrupt[b]; ok {
				d.CorruptBlocks = append(d.CorruptBlocks, b)
				in.CorruptHits++
			}
		}
		if cd := in.Decide(MediumCorruptRead); cd.Fault && len(d.CorruptBlocks) == 0 {
			// Transient flip: this read of the first block comes back wrong,
			// but the sector itself is fine (a retry sees clean data).
			d.CorruptBlocks = append(d.CorruptBlocks, lba)
		}
	}
	return d
}

// siteArmed reports whether a site can ever fire under the plan; unarmed
// device sites draw nothing, so pre-fabric fault schedules replay
// bit-identically.
func (in *Injector) siteArmed(s Site) bool {
	sp := &in.plan.Sites[s]
	return sp.Prob > 0 || len(sp.OneShot) > 0
}

// DeviceAccess decides whether an operation on device dev is reachable at
// virtual time now. A killed device rejects everything until ReviveDevice; a
// partitioned one rejects until its window closes. When neither latch holds,
// the armed DeviceKill/DevicePartition sites each draw one verdict for this
// operation and may latch the device. Safe on a nil receiver.
func (in *Injector) DeviceAccess(dev int, now sim.Time) Decision {
	if in == nil {
		return Decision{}
	}
	if _, dead := in.killed[dev]; dead {
		in.PartitionHits++
		return Decision{Fault: true}
	}
	if until, ok := in.partitioned[dev]; ok {
		if now < until {
			in.PartitionHits++
			return Decision{Fault: true}
		}
		delete(in.partitioned, dev)
	}
	var d Decision
	if in.siteArmed(DeviceKill) {
		if kd := in.Decide(DeviceKill); kd.Fault {
			in.killed[dev] = struct{}{}
			in.DeviceKills++
			d.Fault = true
		}
	}
	if !d.Fault && in.siteArmed(DevicePartition) {
		if pd := in.Decide(DevicePartition); pd.Fault {
			in.partitioned[dev] = now + in.plan.PartitionDuration
			d.Fault = true
		}
	}
	return d
}

// KillDevice latches a device dead, exactly as a DeviceKill fault would —
// the explicit chaos-experiment form of pulling a controller.
func (in *Injector) KillDevice(dev int) {
	if in == nil {
		return
	}
	if _, ok := in.killed[dev]; !ok {
		in.killed[dev] = struct{}{}
		in.DeviceKills++
	}
}

// ReviveDevice clears a device's kill (and partition) latch: the replaced or
// repaired controller is reachable again and may be resilvered.
func (in *Injector) ReviveDevice(dev int) {
	if in == nil {
		return
	}
	if _, ok := in.killed[dev]; ok {
		in.DeviceRevives++
	}
	delete(in.killed, dev)
	delete(in.partitioned, dev)
}

// Degrade arms a fail-slow profile at runtime — the chaos-experiment form of
// a medium that starts running hot mid-experiment. Safe on a nil receiver
// (no-op).
func (in *Injector) Degrade(d Degradation) {
	if in == nil {
		return
	}
	in.degr = append(in.degr, d)
}

// ClearDegradations drops every profile targeting dev (the component was
// replaced or cooled off). Safe on a nil receiver.
func (in *Injector) ClearDegradations(dev int) {
	if in == nil {
		return
	}
	kept := in.degr[:0]
	for _, d := range in.degr {
		if d.Device != dev {
			kept = append(kept, d)
		}
	}
	in.degr = kept
}

// DegradeDelay reports the extra fail-slow latency an operation on device dev
// with base service time base pays at virtual time now, summed over every
// active profile. The computation is pure ramp arithmetic — no PRNG stream is
// touched — so armed degradations leave every fault schedule bit-identical.
// Safe on a nil receiver (zero).
func (in *Injector) DegradeDelay(dev int, base, now sim.Time) sim.Time {
	if in == nil || len(in.degr) == 0 {
		return 0
	}
	var extra sim.Time
	for _, d := range in.degr {
		if d.Device != dev || now < d.Start {
			continue
		}
		if d.Duration > 0 && now >= d.Start+d.Duration {
			continue
		}
		full := d.Extra
		if d.Factor > 1 {
			full += sim.Time(float64(base) * (d.Factor - 1))
		}
		if full <= 0 {
			continue
		}
		if elapsed := now - d.Start; d.Ramp > 0 && elapsed < d.Ramp {
			extra += sim.Time(float64(full) * float64(elapsed) / float64(d.Ramp))
		} else {
			extra += full
		}
	}
	if extra > 0 {
		in.DegradedOps++
		in.DegradedTime += extra
	}
	return extra
}

// Ops reports how many decisions site s has made.
func (in *Injector) Ops(s Site) int64 {
	if in == nil {
		return 0
	}
	return in.ops[s]
}

// Faults reports how many operations site s has faulted.
func (in *Injector) Faults(s Site) int64 {
	if in == nil {
		return 0
	}
	return in.faults[s]
}

// Delays reports how many operations site s has slowed via Decision.Delay.
func (in *Injector) Delays(s Site) int64 {
	if in == nil {
		return 0
	}
	return in.delays[s]
}

// TotalDelays reports delay injections across all sites.
func (in *Injector) TotalDelays() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for s := Site(0); s < NumSites; s++ {
		t += in.delays[s]
	}
	return t
}

// TotalFaults reports faults across all sites.
func (in *Injector) TotalFaults() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for s := Site(0); s < NumSites; s++ {
		t += in.faults[s]
	}
	return t
}

// LatentCount reports the number of currently latent sectors.
func (in *Injector) LatentCount() int {
	if in == nil {
		return 0
	}
	return len(in.latent)
}

// CorruptCount reports the number of currently latched-corrupt sectors.
func (in *Injector) CorruptCount() int {
	if in == nil {
		return 0
	}
	return len(in.corrupt)
}

// CorruptionsInjected totals the silent corruptions the plan has inflicted:
// latched-sector read hits plus transient read flips plus DMA flips.
func (in *Injector) CorruptionsInjected() int64 {
	if in == nil {
		return 0
	}
	return in.CorruptHits + in.faults[MediumCorruptRead] + in.faults[DMACorrupt]
}

// Flip corrupts p in place by flipping one bit at a position derived
// deterministically from salt. The same salt always flips the same bit, so a
// latched-corrupt sector returns the same wrong bytes on every read.
func Flip(p []byte, salt uint64) {
	if len(p) == 0 {
		return
	}
	z := salt + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	p[z%uint64(len(p))] ^= 1 << ((z >> 8) % 8)
}

// Summary renders the per-site counters as one deterministic line per site —
// chaos tests compare summaries across runs to prove seed reproducibility.
func (in *Injector) Summary() string {
	if in == nil {
		return "fault: no plan"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan seed=%d\n", in.plan.Seed)
	for s := Site(0); s < NumSites; s++ {
		fmt.Fprintf(&b, "  %-12s ops=%-8d faults=%-6d delays=%d\n",
			s, in.ops[s], in.faults[s], in.delays[s])
	}
	fmt.Fprintf(&b, "  latent: hits=%d added=%d cleared=%d live=%d\n",
		in.LatentHits, in.LatentAdded, in.LatentCleared, len(in.latent))
	fmt.Fprintf(&b, "  corrupt: hits=%d added=%d cleared=%d live=%d\n",
		in.CorruptHits, in.CorruptAdded, in.CorruptCleared, len(in.corrupt))
	fmt.Fprintf(&b, "  devices: kills=%d revives=%d rejected=%d dead=%d\n",
		in.DeviceKills, in.DeviceRevives, in.PartitionHits, len(in.killed))
	fmt.Fprintf(&b, "  degraded: ops=%d extra=%d live=%d\n",
		in.DegradedOps, int64(in.DegradedTime), len(in.degr))
	return b.String()
}
