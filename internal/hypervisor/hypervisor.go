// Package hypervisor models the host virtualization stack: the QEMU/KVM-
// style virtual machine monitor of the paper's experimental platform. It
// owns the NeSC physical function, mounts the host filesystem on it, routes
// the device's interrupts, services translation-miss interrupts (lazy
// allocation and pruned-tree regeneration), and exposes the three storage
// virtualization methods of the paper's Figure 1 to guest VMs:
//
//	full device emulation (trapped PIO), virtio (paravirtual), and
//	direct device assignment of NeSC virtual functions.
package hypervisor

import (
	"fmt"
	"slices"

	"nesc/internal/core"
	"nesc/internal/extent"
	"nesc/internal/extfs"
	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/hostmem"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Params is the host-side cost model.
type Params struct {
	// VMExitTime / VMEnterTime are the world-switch halves of a trap.
	VMExitTime  sim.Time
	VMEnterTime sim.Time
	// InjectTime is the cost of injecting an interrupt into a guest.
	InjectTime sim.Time
	// HostStackTime is the host block layer's per-request cost (the
	// hypervisor replica of the guest stack, §II).
	HostStackTime sim.Time
	// HostFSOpCost is the host filesystem's per-operation CPU cost.
	HostFSOpCost sim.Time
	// BackendWakeTime is the latency from a virtio kick to the backend
	// thread running (eventfd + iothread scheduling).
	BackendWakeTime sim.Time
	// BackendProcessTime is QEMU's per-request virtio-blk processing cost.
	BackendProcessTime sim.Time
	// EmulTrapTime is the device-emulation work per trapped access.
	EmulTrapTime sim.Time
	// EmulCmdProcessTime is the emulated disk's per-command processing.
	EmulCmdProcessTime sim.Time
	// MissHandlerTime is the hypervisor CPU cost of one NeSC miss
	// (interrupt handler, filesystem query, tree rebuild).
	MissHandlerTime sim.Time
	// MemcpyBandwidth prices host-side data copies.
	MemcpyBandwidth float64
	// UseIOMMU enables DMA remapping (a real SR-IOV platform); off, the
	// paper's prototype mode, guests bounce through trampoline buffers.
	UseIOMMU bool
	// Guest is the guest kernel cost model of every VM the hypervisor starts.
	Guest guest.Params
	// Ring is the settings value of every ring client the hypervisor sets up
	// — the PF driver and each direct-assigned VF driver alike. Five of its
	// fields are platform policy and read here: SubmitTime (which also prices
	// the virtio and emulation guest drivers), Timeout and RetryMax, Deadline
	// (programmed into VF queues only: the host's own I/O is never abandoned)
	// and PIBlock, which here is on/off only — non-zero runs each client's
	// protection information at its device's block size, 0 is the
	// integrity-ablation knob. Entries, Queues, Policy and Backoff are
	// per client and ignored here: pfRingEntries and a VM's VMConfig set the
	// ring shape, the hypervisor the attribution row (Device.ringConfig).
	Ring guest.RingConfig
}

const (
	// pfRingEntries sizes the PF rings.
	pfRingEntries = 256
	// pfMaxBlocksPerReq bounds one PF ring request.
	pfMaxBlocksPerReq = 1024
)

// DefaultParams returns costs representative of the paper's QEMU/KVM
// platform (Table I).
func DefaultParams() Params {
	return Params{
		VMExitTime:         1300 * sim.Nanosecond,
		VMEnterTime:        1200 * sim.Nanosecond,
		InjectTime:         1800 * sim.Nanosecond,
		HostStackTime:      2500 * sim.Nanosecond,
		HostFSOpCost:       1800 * sim.Nanosecond,
		BackendWakeTime:    12 * sim.Microsecond,
		BackendProcessTime: 48 * sim.Microsecond,
		EmulTrapTime:       22 * sim.Microsecond,
		EmulCmdProcessTime: 45 * sim.Microsecond,
		MissHandlerTime:    6 * sim.Microsecond,
		MemcpyBandwidth:    8e9,
		Guest:              guest.DefaultParams(),
		Ring: guest.RingConfig{
			SubmitTime: 600 * sim.Nanosecond,
			PIBlock:    core.DefaultParams().BlockSize, // on
		},
	}
}

// sharedTree is one extent tree exported through one or more VFs. The paper
// (§IV-B) explicitly allows "multiple VFs to share an extent tree and
// thereby files"; NeSC guarantees only the consistency of the shared tree —
// data synchronization is the clients' business.
type sharedTree struct {
	// path is the exported host file and file the handle the export opened
	// on it, through which every host-filesystem call on the image goes;
	// "" and nil for a raw VF, whose tree no other VF shares.
	path string
	file *extfs.File
	tree *extent.Tree
	// vfs lists the VFs exporting the tree in index order, the order every
	// sharer is written to (next); the tree is freed when the list empties.
	vfs []int
}

// next returns the first sharer after VF index after. Writes to every sharer
// walk the list with it rather than range over it: they park, and a sharer
// leaving or joining meanwhile is skipped or visited as an index-order scan of
// the VF table would.
func (sh *sharedTree) next(after int) (int, bool) {
	i, _ := slices.BinarySearch(sh.vfs, after+1)
	if i == len(sh.vfs) {
		return 0, false
	}
	return sh.vfs[i], true
}

// vfState is the one per-VF record: everything the hypervisor knows about
// VF idx of a device, reached through Device.vf/vfAt and changed only by a
// Device.transition. Records live as long as the device — longer than any
// one export — so a process may hold one across a park.
type vfState struct {
	// shared is the exported tree, nil while the VF exports nothing.
	shared *sharedTree
	// sizeBlocks is the size programmed into the VF's management block: the
	// bound every address the device latches for this VF is held to.
	sizeBlocks uint64

	// busy marks a latched miss that is already being serviced, so duplicate
	// miss interrupts are idempotent (see serviceMissBank).
	busy bool
	// lock is the VF's management lock, taken by transition and nowhere else.
	lock *sim.Semaphore
}

// msiRoute is where one function's completion interrupts go: the ring client,
// and whether it runs in a guest (a VF AttachLeg assigned), so that delivery
// pays the injection cost.
type msiRoute struct {
	mq     *guest.MultiQueue
	inject bool
}

// Hypervisor is the host VMM instance. It owns what is fleet-wide — MSI
// routing, the fault injector, the counters —
// and manages a fleet of NeSC devices (devs), each carrying its own
// per-controller state.
type Hypervisor struct {
	Eng *sim.Engine
	Mem *hostmem.Memory
	Fab *pcie.Fabric
	P   Params

	// devs is the managed device fleet; devByPF routes a miss interrupt's
	// source PF to its device.
	devs    []*Device
	devByPF map[pcie.FnID]*Device

	// qps routes completion MSIs to ring clients.
	qps map[pcie.FnID]msiRoute

	// inj optionally perturbs the miss-service path (fault.MissHandler site).
	inj *fault.Injector

	// FetchMisses counts the serviced MissReasonFetch misses.
	FetchMisses int64
	// MissInterrupts counts serviced NeSC miss interrupts.
	MissInterrupts int64
	// Injections counts guest interrupt injections.
	Injections int64
	// MissFaults counts misses the hypervisor failed by fault injection.
	MissFaults int64
	// MissNoProgress counts misses failed because their service left the
	// faulting block as the walk had found it: a retry would miss again.
	MissNoProgress int64
	// VFResets counts function-level resets issued through ResetVF.
	VFResets int64
	// Snapshots / Clones / CowBreaks count the CoW subsystem's operations:
	// snapshots taken, clones made (CloneVF), and device CoW faults serviced
	// end to end (see snapshot.go).
	Snapshots int64
	Clones    int64
	CowBreaks int64

	// Background scrubber state and lifetime counters (see scrub.go).
	scrubOn     bool
	scrubStop   bool
	ScrubPasses int64
	ScrubBlocks int64
	ScrubErrors int64
	// ScrubRepairs counts device integrity repairs observed during scrub
	// passes (a subset of the controller's IntegrityRepairs).
	ScrubRepairs int64
}

// New builds a hypervisor with an empty fleet and installs the MSI router.
// Attach every controller with AddDevice, then Boot.
func New(eng *sim.Engine, mem *hostmem.Memory, fab *pcie.Fabric, p Params) *Hypervisor {
	h := &Hypervisor{
		Eng:     eng,
		Mem:     mem,
		Fab:     fab,
		P:       p,
		devByPF: make(map[pcie.FnID]*Device),
		qps:     make(map[pcie.FnID]msiRoute),
	}
	fab.SetMSIHandler(h.handleMSI)
	if p.UseIOMMU {
		fab.IOMMU().Enable()
	}
	return h
}

// SetInjector installs a fault injector on the hypervisor's miss-service
// path. Pass nil to disable.
func (h *Hypervisor) SetInjector(inj *fault.Injector) { h.inj = inj }

// RecoveryStats sums the counters of every ring client the hypervisor routes
// interrupts to (the PF drivers and all VF drivers).
func (h *Hypervisor) RecoveryStats() guest.QueueCounters {
	var st guest.QueueCounters
	for _, r := range h.qps {
		for _, qp := range r.mq.Queues() {
			st.Add(&qp.QueueCounters)
		}
	}
	return st
}

// Routes reports how many functions have their completion interrupts routed to
// a ring client: every booted PF and every attached leg.
func (h *Hypervisor) Routes() int { return len(h.qps) }

// route delivers the completion interrupts of d's function fn (0 = the PF,
// VF idx + 1 otherwise) to mq and reports the client to the device's observer
// (Arg 1 for a guest's), which may bind its backoff hook and publish its queues'
// gauges: a driver queue exists only from this moment on.
func (d *Device) route(fn int, mq *guest.MultiQueue, inject bool) {
	h := d.h
	id := d.Ctl.PF().ID()
	if fn > 0 {
		id = d.Ctl.VF(fn - 1).ID()
	}
	h.qps[id] = msiRoute{mq: mq, inject: inject}
	e := core.Event{Kind: core.EvRoute, Fn: fn, Obj: mq}
	if inject {
		e.Arg = 1
	}
	d.Ctl.Report(e)
}

func (h *Hypervisor) handleMSI(from pcie.FnID, vec uint8) {
	if vec == ring.VecMiss {
		// Miss interrupts are raised by a device's PF: route to that
		// device's handler. Device 0 keeps the historical proc name.
		d := h.devByPF[from]
		if d == nil {
			return
		}
		name := "nesc-miss-handler"
		if id := d.Ctl.P.DeviceID; id != 0 {
			name = fmt.Sprintf("nesc%d-miss-handler", id)
		}
		h.Eng.Go(name, d.serviceMisses)
		return
	}
	q, ok := ring.QueueOfVector(vec)
	if !ok {
		return
	}
	r := h.qps[from]
	mq := r.mq
	if mq == nil {
		return
	}
	if r.inject {
		// VF completions are delivered to the guest: charge injection.
		h.Injections++
		h.Eng.After(h.P.InjectTime, func() { mq.OnInterrupt(q) })
		return
	}
	mq.OnInterrupt(q)
}

// Boot programs the PF rings and formats (or mounts) the host filesystem on
// every managed device. The format/mount choice applies to device 0, the one
// that can carry a surviving store; the others are always formatted fresh
// (they are replica targets, not carriers of pre-seeded images).
func (h *Hypervisor) Boot(p *sim.Proc, format bool, fsParams extfs.Params) error {
	for _, d := range h.devs {
		if err := d.boot(p, format || d.Idx != 0, fsParams); err != nil {
			return err
		}
	}
	return nil
}

// PFDisk is the host's block device over one device's PF out-of-band
// channel: the "raw storage device with no file mapping capabilities" that
// serves as the paper's baseline (§VII). Its bounce buffer holds one PF
// request (pfMaxBlocksPerReq blocks) at most.
type PFDisk struct {
	d      *Device
	bounce guest.Buffer
}

// BlockSize implements extfs.BlockDev.
func (pd *PFDisk) BlockSize() int { return pd.d.Ctl.P.BlockSize }

// NumBlocks implements extfs.BlockDev.
func (pd *PFDisk) NumBlocks() int64 { return pd.d.Ctl.Medium.Store().NumBlocks() }

// hostBlockTries is how often the host block layer issues a request that
// keeps failing transiently (a rejected DMA transfer, a reset abort) before
// the error propagates — bounded, like a real kernel's.
const hostBlockTries = 4

// pfSubmit moves nBlocks between the medium at lba and host memory at addr
// over the PF out-of-band channel, split at the channel's request-size limit.
// Every request pays the host stack time; one that fails transiently is
// issued up to tries times, any other error propagates at once. A backend
// that maps the PF into a guest passes 1: there the guest's own block layer
// is what retries.
func (d *Device) pfSubmit(p *sim.Proc, op uint32, lba int64, addr hostmem.Addr, nBlocks, tries int) error {
	bs := int64(d.Ctl.P.BlockSize)
	for done := 0; done < nBlocks; {
		n := nBlocks - done
		if n > pfMaxBlocksPerReq {
			n = pfMaxBlocksPerReq
		}
		var serr error
		for try := 0; try < tries; try++ {
			p.Sleep(d.h.P.HostStackTime)
			st, err := d.pfQP.Submit(p, op, uint64(lba+int64(done)), uint32(n), addr+int64(done)*bs)
			if err != nil {
				return err
			}
			serr = ring.StatusError(st)
			if serr == nil || (st != ring.StatusDMAFault && st != ring.StatusAborted) {
				break
			}
		}
		if serr != nil {
			return serr
		}
		done += n
	}
	return nil
}

// ReadBlocks implements extfs.BlockDev.
func (pd *PFDisk) ReadBlocks(ctx *sim.Proc, lba int64, p []byte) error {
	if ctx == nil {
		// Timeless access for setup/inspection: bypass the rings.
		return pd.d.Ctl.Medium.Store().ReadBlocks(lba, p)
	}
	if err := pd.bounceIO(ctx, ring.OpRead, lba, p); err != nil {
		return err
	}
	ctx.Sleep(sim.BytesTime(int64(len(p)), pd.d.h.P.MemcpyBandwidth))
	return nil
}

// WriteBlocks implements extfs.BlockDev.
func (pd *PFDisk) WriteBlocks(ctx *sim.Proc, lba int64, p []byte) error {
	if ctx == nil {
		return pd.d.Ctl.Medium.Store().WriteBlocks(lba, p)
	}
	ctx.Sleep(sim.BytesTime(int64(len(p)), pd.d.h.P.MemcpyBandwidth))
	return pd.bounceIO(ctx, ring.OpWrite, lba, p)
}

// bounceIO moves p to or from the medium at lba one PF request at a time,
// each copied through the bounce buffer around its own submission: the same
// requests pfSubmit would split p into, from a buffer no longer than one of
// them. The copy's cost is the caller's to charge, once for all of p.
func (pd *PFDisk) bounceIO(ctx *sim.Proc, op uint32, lba int64, p []byte) error {
	bs := pd.BlockSize()
	for off := 0; off < len(p); {
		n := min(len(p)-off, pfMaxBlocksPerReq*bs)
		buf := pd.bounce.Ensure(pd.d.h.Mem, n)
		if op == ring.OpWrite {
			copy(buf.Data, p[off:])
		}
		if err := pd.d.pfSubmit(ctx, op, lba+int64(off/bs), buf.Addr, n/bs, hostBlockTries); err != nil {
			return err
		}
		if op == ring.OpRead {
			copy(p[off:], buf.Data)
		}
		off += n
	}
	return nil
}

// Flush implements extfs.BlockDev.
func (pd *PFDisk) Flush(*sim.Proc) error { return nil }

// trap charges a full guest trap (vmexit + handler + vmenter) to the guest's
// process.
func (h *Hypervisor) trap(p *sim.Proc, handler sim.Time) {
	p.Sleep(h.P.VMExitTime + handler + h.P.VMEnterTime)
}
