// Package pcie models the PCIe interconnect between the host and the NeSC
// device: function addressing (routing IDs, the bus:device:function triplet
// of the paper), BAR-mapped MMIO with read/write timing, DMA with per-TLP
// overhead and link-bandwidth serialization, MSI interrupts, an optional
// IOMMU (the prototype in the paper runs without one, which is why it needs
// trampoline buffers), and the SR-IOV capability that lets one physical
// device expose virtual functions.
//
// Timing model: the link is full duplex. Device-initiated reads of host
// memory consume host-to-device completion bandwidth and pay a round-trip
// request latency; device writes and MSIs consume device-to-host bandwidth.
// MMIO reads are non-posted (the CPU stalls for a round trip); MMIO writes
// are posted.
package pcie

import (
	"fmt"

	"nesc/internal/fault"
	"nesc/internal/hostmem"
	"nesc/internal/sim"
)

// FnID identifies a PCIe function on the fabric (a compressed
// bus:device:function routing ID). The fabric originates it on every
// transaction, so — exactly as in the paper — it is unforgeable by clients.
type FnID uint16

// Device is the fabric-facing interface a PCIe endpoint implements. MMIO
// handlers run in engine context and must not block; long operations are
// modeled by scheduling further events.
type Device interface {
	// PCIeName identifies the device in diagnostics.
	PCIeName() string
	// MMIORead services a non-posted read of `size` bytes at BAR offset off.
	MMIORead(off int64, size int) uint64
	// MMIOWrite services a posted write at BAR offset off.
	MMIOWrite(off int64, size int, val uint64)
}

// Params sets the fabric cost model.
type Params struct {
	// LinkBandwidth is the payload bandwidth of each link direction in
	// bytes/second (PCIe gen2 x8 ≈ 3.2 GB/s effective).
	LinkBandwidth float64
	// TLPOverheadBytes is the per-transfer framing overhead folded into
	// serialization (headers, DLLP traffic).
	TLPOverheadBytes int64
	// MaxPayload is the maximum TLP payload; larger DMAs are split and pay
	// the overhead per TLP.
	MaxPayload int64
	// DMARequestLatency is the one-way request latency of a device-initiated
	// read before completion data starts flowing.
	DMARequestLatency sim.Time
	// PropagationLatency is the one-way wire+switch latency of any TLP.
	PropagationLatency sim.Time
	// MMIOReadLatency is the full CPU-visible round trip of a non-posted
	// read.
	MMIOReadLatency sim.Time
	// MMIOWriteLatency is the CPU-side cost of issuing a posted write.
	MMIOWriteLatency sim.Time
	// MSILatency is the delivery cost of a message-signaled interrupt from
	// device doorbell to host handler dispatch.
	MSILatency sim.Time
}

// DefaultParams returns a PCIe gen2 x8 cost model matching the paper's
// prototype platform (Table I).
func DefaultParams() Params {
	return Params{
		LinkBandwidth:      3.2e9,
		TLPOverheadBytes:   24,
		MaxPayload:         256,
		DMARequestLatency:  600 * sim.Nanosecond,
		PropagationLatency: 200 * sim.Nanosecond,
		MMIOReadLatency:    900 * sim.Nanosecond,
		MMIOWriteLatency:   150 * sim.Nanosecond,
		MSILatency:         900 * sim.Nanosecond,
	}
}

// barWindow records one device's slice of the fabric's flat MMIO space.
type barWindow struct {
	base, size int64
	dev        Device
}

type fnRecord struct {
	id   FnID
	name string
}

// MSIHandler receives interrupts raised on the fabric. It runs in engine
// context.
type MSIHandler func(from FnID, vector uint8)

// Fabric is the interconnect instance: it owns the address maps, the two
// link directions, the IOMMU, and the MSI delivery path.
type Fabric struct {
	Eng    *sim.Engine
	Mem    *hostmem.Memory
	Params Params

	toHost *sim.Link // device -> host direction
	toDev  *sim.Link // host -> device direction

	bars    []barWindow
	nextBar int64
	fns     []fnRecord

	iommu *IOMMU

	msiHandler MSIHandler

	// msiVectors records how many MSI vectors each function allocated. A
	// function with no entry is unconstrained (legacy single-vector devices
	// never call AllocMSIVectors).
	msiVectors map[FnID]int

	inj *fault.Injector

	// Counters for tests and reporting.
	DMAReads, DMAWrites   int64
	DMAReadBytes          int64
	DMAWriteBytes         int64
	MSIs                  int64
	MMIOReads, MMIOWrites int64
	// Fault-injection counters: TLP-level DMA rejections, MSIs dropped on the
	// wire, and MSIs delivered late.
	DMAFaultsInjected int64
	DroppedMSIs       int64
	DelayedMSIs       int64
	// BadMSIVectors counts interrupts raised on a vector beyond the
	// function's allocated range; they are dropped, as real MSI hardware
	// would.
	BadMSIVectors int64
}

// New creates a fabric over the given engine and host memory.
func New(eng *sim.Engine, mem *hostmem.Memory, p Params) *Fabric {
	return &Fabric{
		Eng:        eng,
		Mem:        mem,
		Params:     p,
		toHost:     sim.NewLink(eng, p.LinkBandwidth, p.PropagationLatency, 0),
		toDev:      sim.NewLink(eng, p.LinkBandwidth, p.PropagationLatency, 0),
		nextBar:    0x1000, // leave page zero unmapped to catch stray accesses
		iommu:      &IOMMU{grants: make(map[FnID][]span)},
		msiVectors: make(map[FnID]int),
	}
}

// IOMMU returns the fabric's IOMMU (disabled by default, as in the paper's
// prototype).
func (f *Fabric) IOMMU() *IOMMU { return f.iommu }

// SetInjector installs a fault injector on the fabric (nil disables
// injection).
func (f *Fabric) SetInjector(inj *fault.Injector) { f.inj = inj }

// RegisterFunction assigns the next routing ID to a named function and
// returns it. The first registered function of a device conventionally is
// its physical function.
func (f *Fabric) RegisterFunction(name string) FnID {
	id := FnID(len(f.fns))
	f.fns = append(f.fns, fnRecord{id: id, name: name})
	return id
}

// MapBAR assigns a BAR window of the given size to dev and returns its bus
// base address.
func (f *Fabric) MapBAR(dev Device, size int64) int64 {
	const align = 0x1000
	base := (f.nextBar + align - 1) &^ (align - 1)
	f.bars = append(f.bars, barWindow{base: base, size: size, dev: dev})
	f.nextBar = base + size
	return base
}

func (f *Fabric) route(busAddr int64) (Device, int64, error) {
	for _, w := range f.bars {
		if busAddr >= w.base && busAddr < w.base+w.size {
			return w.dev, busAddr - w.base, nil
		}
	}
	return nil, 0, fmt.Errorf("pcie: no BAR maps bus address %#x", busAddr)
}

// MMIORead performs a non-posted CPU read of a device register, stalling the
// calling process for the round-trip latency.
func (f *Fabric) MMIORead(p *sim.Proc, busAddr int64, size int) (uint64, error) {
	dev, off, err := f.route(busAddr)
	if err != nil {
		return 0, err
	}
	f.MMIOReads++
	p.Sleep(f.Params.MMIOReadLatency)
	return dev.MMIORead(off, size), nil
}

// MMIOWrite performs a posted CPU write of a device register. The calling
// process pays only the issue cost; delivery happens after the propagation
// latency.
func (f *Fabric) MMIOWrite(p *sim.Proc, busAddr int64, size int, val uint64) error {
	dev, off, err := f.route(busAddr)
	if err != nil {
		return err
	}
	f.MMIOWrites++
	if p != nil {
		p.Sleep(f.Params.MMIOWriteLatency)
	}
	f.Eng.After(f.Params.PropagationLatency, func() {
		dev.MMIOWrite(off, size, val)
	})
	return nil
}

// tlpCount reports how many TLPs an n-byte DMA splits into.
func (f *Fabric) tlpCount(n int64) int64 {
	mp := f.Params.MaxPayload
	if mp <= 0 {
		return 1
	}
	c := (n + mp - 1) / mp
	if c < 1 {
		c = 1
	}
	return c
}

// admit is the prologue every DMA shares: the range check against host memory
// (the address is whatever a guest or a tree node said), the IOMMU check, the
// fault draw and the counters. It returns the injected extra delay and the
// bytes the transfer puts on the wire.
func (f *Fabric) admit(write bool, from FnID, addr hostmem.Addr, n int64) (sim.Time, int64, error) {
	site, verb, ops, moved := fault.DMARead, "read", &f.DMAReads, &f.DMAReadBytes
	if write {
		site, verb, ops, moved = fault.DMAWrite, "write", &f.DMAWrites, &f.DMAWriteBytes
	}
	if addr < 0 || n < 0 || addr > f.Mem.Size()-n { // not addr+n: a hostile addr would wrap it
		return 0, 0, fmt.Errorf("pcie: DMA %s outside host memory: fn %d addr %#x len %d", verb, from, addr, n)
	}
	if err := f.iommu.Check(from, addr, n); err != nil {
		return 0, 0, err
	}
	dec := f.inj.Decide(site)
	if dec.Fault {
		f.DMAFaultsInjected++
		return 0, 0, fmt.Errorf("pcie: injected DMA %s fault: fn %d addr %#x", verb, from, addr)
	}
	*ops++
	*moved += n
	return dec.Delay, n + f.tlpCount(n)*f.Params.TLPOverheadBytes, nil
}

// must panics on a host-memory error: admit validated the range (a model bug).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// DMARead copies len(p) bytes of host memory at addr into p on behalf of
// function `from`, invoking done when the completion data has fully arrived
// at the device: it sees the bytes present when the data phase finishes. The
// data flows on the host-to-device link.
func (f *Fabric) DMARead(from FnID, addr hostmem.Addr, p []byte, done func()) error {
	delay, wire, err := f.admit(false, from, addr, int64(len(p)))
	if err != nil {
		return err
	}
	f.Eng.After(f.Params.DMARequestLatency+delay, func() {
		f.toDev.Transfer(wire, func() {
			must(f.Mem.Read(addr, p))
			done()
		})
	})
	return nil
}

// DMAReadP is the process form of DMARead: the same two events (request
// latency, then the link), with p parked across both. A process form borrows
// the caller's buffer until it returns and copies nothing.
func (f *Fabric) DMAReadP(p *sim.Proc, from FnID, addr hostmem.Addr, buf []byte) error {
	delay, wire, err := f.admit(false, from, addr, int64(len(buf)))
	if err != nil {
		return err
	}
	if d := f.Params.DMARequestLatency + delay; d > 0 {
		p.Sleep(d)
	} else {
		p.Yield() // a zero request latency is still an event in the callback form
	}
	f.toDev.TransferP(p, wire)
	must(f.Mem.Read(addr, buf))
	return nil
}

// post is the timed part of a posted write of n bytes: admission, the
// device-to-host link, then any injected delay; drained runs when the write
// lands.
func (f *Fabric) post(from FnID, addr hostmem.Addr, n int64, drained func()) error {
	delay, wire, err := f.admit(true, from, addr, n)
	if err != nil {
		return err
	}
	f.toHost.Transfer(wire, func() {
		if delay > 0 {
			f.Eng.After(delay, drained)
		} else {
			drained()
		}
	})
	return nil
}

// postP is post with p parked until the write has drained.
func (f *Fabric) postP(p *sim.Proc, from FnID, addr hostmem.Addr, n int64) error {
	delay, wire, err := f.admit(true, from, addr, n)
	if err != nil {
		return err
	}
	f.toHost.TransferP(p, wire)
	p.Sleep(delay)
	return nil
}

// DMAWrite copies p into host memory at addr on behalf of function `from`,
// invoking done when the posted write has drained onto the link. Nobody is
// parked, so the payload is snapshotted: the caller may reuse p at once.
func (f *Fabric) DMAWrite(from FnID, addr hostmem.Addr, p []byte, done func()) error {
	data := append([]byte(nil), p...)
	return f.post(from, addr, int64(len(p)), func() {
		must(f.Mem.Write(addr, data))
		done()
	})
}

// DMAWriteP is the process form of DMAWrite: what lands is buf at the drain.
func (f *Fabric) DMAWriteP(p *sim.Proc, from FnID, addr hostmem.Addr, buf []byte) error {
	if err := f.postP(p, from, addr, int64(len(buf))); err != nil {
		return err
	}
	must(f.Mem.Write(addr, buf))
	return nil
}

// DMAZero writes n zero bytes to host memory at addr (the paper's
// hole-read path: unmapped vLBAs "read as zeros" and NeSC "transparently
// DMAs zeros to the destination buffer").
func (f *Fabric) DMAZero(from FnID, addr hostmem.Addr, n int64, done func()) error {
	return f.post(from, addr, n, func() {
		must(f.Mem.Zero(addr, n))
		done()
	})
}

// DMAZeroP is the process form of DMAZero.
func (f *Fabric) DMAZeroP(p *sim.Proc, from FnID, addr hostmem.Addr, n int64) error {
	if err := f.postP(p, from, addr, n); err != nil {
		return err
	}
	must(f.Mem.Zero(addr, n))
	return nil
}

// SetMSIHandler installs the host-side interrupt dispatcher.
func (f *Fabric) SetMSIHandler(h MSIHandler) { f.msiHandler = h }

// AllocMSIVectors records that function id enabled n MSI vectors (the MSI
// capability's multiple-message enable). Interrupts raised on vectors >= n
// are dropped and counted in BadMSIVectors.
func (f *Fabric) AllocMSIVectors(id FnID, n int) {
	f.msiVectors[id] = n
}

// RaiseMSI delivers a message-signaled interrupt from a function to the
// host. An injected fault silently drops the interrupt on the wire — the
// raising function believes it was delivered.
func (f *Fabric) RaiseMSI(from FnID, vector uint8) {
	if n, ok := f.msiVectors[from]; ok && int(vector) >= n {
		f.BadMSIVectors++
		return
	}
	dec := f.inj.Decide(fault.MSI)
	if dec.Fault {
		f.DroppedMSIs++
		return
	}
	if dec.Delay > 0 {
		f.DelayedMSIs++
	}
	f.MSIs++
	f.Eng.After(f.Params.MSILatency+dec.Delay, func() {
		if f.msiHandler != nil {
			f.msiHandler(from, vector)
		}
	})
}

// span is a granted DMA window.
type span struct{ base, size int64 }

// IOMMU validates device-initiated DMA against per-function grants. Disabled
// (the default) it admits everything — the paper's prototype platform, where
// "the emulated VFs are not recognized by the IOMMU", so the hypervisor
// interposes trampoline buffers instead.
type IOMMU struct {
	enabled bool
	grants  map[FnID][]span
}

// Enable turns enforcement on.
func (i *IOMMU) Enable() { i.enabled = true }

// Grant allows function fn to DMA within [base, base+size).
func (i *IOMMU) Grant(fn FnID, base hostmem.Addr, size int64) {
	i.grants[fn] = append(i.grants[fn], span{base, size})
}

// RevokeAll removes every grant for fn (VF teardown).
func (i *IOMMU) RevokeAll(fn FnID) { delete(i.grants, fn) }

// Check validates an access, returning an error on a fault.
func (i *IOMMU) Check(fn FnID, addr hostmem.Addr, size int64) error {
	if !i.enabled {
		return nil
	}
	for _, s := range i.grants[fn] {
		if addr >= s.base && size <= s.size && addr-s.base <= s.size-size { // no sum a hostile addr could wrap
			return nil
		}
	}
	return fmt.Errorf("pcie: IOMMU fault: fn %d access of %d bytes at %#x not granted", fn, size, addr)
}

// SRIOVCap describes a device's SR-IOV capability as exposed in (simplified)
// config space: how many VFs it supports and how many are enabled.
type SRIOVCap struct {
	TotalVFs   int
	NumEnabled int
}

// EnableVFs sets the enabled-VF count, clamped to TotalVFs.
func (c *SRIOVCap) EnableVFs(n int) error {
	if n < 0 || n > c.TotalVFs {
		return fmt.Errorf("pcie: cannot enable %d VFs (TotalVFs=%d)", n, c.TotalVFs)
	}
	c.NumEnabled = n
	return nil
}
