// Package ring defines the NeSC queue-pair protocol: the submission/completion
// wire format, the producer/consumer index arithmetic, the doorbell coherence
// rule, the completion-status vocabulary, and (regs.go) the register map and
// MSI vector numbering. The device (internal/core), the guest VF driver, and
// the hypervisor's PF driver (internal/guest, shared) all consume this one
// definition, so the two sides of the wire cannot drift and neither imports
// the other.
//
// Protocol summary (paper §IV-C, Fig. 6, generalized to N queue pairs per
// function):
//
//   - A queue pair is a submission ring of DescBytes descriptors and a
//     completion ring of CplBytes entries, both resident in host memory and
//     DMAed by the device.
//   - Producer and consumer indices free-run over uint32 and are reduced to a
//     ring slot modulo the entry count; ring sizes are powers of two so the
//     reduction is well defined across wraparound.
//   - A doorbell write announces a new producer index. It is coherent only if
//     it claims at most `entries` not-yet-consumed descriptors; anything else
//     would silently wrap live descriptors and is dropped (with an AER-style
//     error counter on the device).
//   - Completions carry a sequence number that starts at 1 and increments per
//     completion; entry seq occupies slot (seq-1) % entries. The driver's
//     interrupt path consumes strictly in sequence, and its timeout path may
//     skip over gaps left by lost completion writes.
package ring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// piTable is the CRC-32C (Castagnoli) table shared by both ends of the PI
// protocol — the same polynomial T10 DIF guard tags use.
var piTable = crc32.MakeTable(crc32.Castagnoli)

// BlockCRC computes the protection-information CRC of one block image.
func BlockCRC(p []byte) uint32 { return crc32.Checksum(p, piTable) }

// PIGuard computes a request-level guard over a multi-block payload: the XOR
// of each block's CRC-32C. XOR is order-independent, so the device can
// accumulate it chunk by chunk even when chunks complete out of order across
// DMA channels.
func PIGuard(p []byte, blockBytes int) uint32 {
	var g uint32
	for off := 0; off+blockBytes <= len(p); off += blockBytes {
		g ^= crc32.Checksum(p[off:off+blockBytes], piTable)
	}
	return g
}

// ErrIntegrity is the driver-visible sentinel for a guard-tag mismatch that
// survived the device's retry ladder (StatusIntegrityError) or was caught by
// the driver's own end-to-end PI verification. Match with errors.Is.
var ErrIntegrity = errors.New("nesc: data integrity error (guard mismatch)")

// ErrBusy is the driver-visible sentinel for an admission-control fast-fail
// (StatusBusy): the device rejected the request before executing anything
// because the function's inflight budget was exhausted or its deadline could
// no longer be met. Always retryable — nothing was read or written. Match
// with errors.Is.
var ErrBusy = errors.New("nesc: device busy (admission control)")

// Wire sizes.
const (
	// DescBytes is the submission descriptor size.
	DescBytes = 32
	// CplBytes is the completion entry size.
	CplBytes = 16
)

// Operation codes in request descriptors. The low byte is the opcode; the
// bits above it are per-request flags.
const (
	OpRead   = 1
	OpWrite  = 2
	OpVerify = 3 // read and guard-check, no data DMA (scrub traffic)

	// OpFlagPI marks a request carrying end-to-end protection information:
	// the descriptor guard field holds the submitter-computed XOR of the
	// payload's per-block CRC-32C tags on writes, and the completion guard
	// field returns the device-computed XOR on reads.
	OpFlagPI = 0x100

	// OpCodeMask extracts the opcode from an op field.
	OpCodeMask = 0xFF
)

// OpCode strips the flag bits from an op field.
func OpCode(op uint32) uint32 { return op & OpCodeMask }

// OpName renders an opcode (flag bits ignored) as the op label every telemetry
// sink keys on, so device- and driver-side credits land in the same rows.
func OpName(op uint32) string {
	switch OpCode(op) {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpVerify:
		return "verify"
	}
	return "other"
}

// Completion status codes.
const (
	StatusOK             = 0
	StatusOutOfRange     = 1 // request exceeds the virtual device
	StatusNoSpace        = 2 // hypervisor denied allocation (quota/space)
	StatusDisabled       = 3 // function not enabled
	StatusDMAFault       = 4 // data-buffer DMA faulted in the IOMMU
	StatusMediumError    = 5 // medium error persisted through all retries
	StatusAborted        = 6 // request killed by a function-level reset
	StatusIntegrityError = 7 // guard-tag mismatch persisted through all retries
	StatusBusy           = 8 // admission control fast-fail: retryable, nothing executed
)

// MaxEntries bounds a ring's entry count.
const MaxEntries = 1 << 16

// Shadow-doorbell block layout. A queue pair may carry an optional 8-byte
// host-memory block shared between driver and device (the NVMe shadow
// doorbell / EventIdx scheme): the driver publishes every new producer index
// in the SHADOW word with a plain memory write, and the device publishes the
// producer index it has caught up to in the EVENT word before it goes idle.
// The driver then rings the MMIO doorbell only when the device needs the
// wakeup — when the device's published EVENT has reached the producer value
// the driver last announced — and skips the write while the device is still
// actively fetching behind it.
const (
	// ShadowBytes is the size of the per-queue shadow block.
	ShadowBytes = 8
	// ShadowOffProd is the offset of the driver-written SHADOW producer word.
	ShadowOffProd = 0
	// ShadowOffEvent is the offset of the device-written EVENT word: the
	// producer index the device had consumed up to when it last went idle.
	ShadowOffEvent = 4
)

// ShouldRing reports whether a submission that advances the producer index
// from prevProd must ring the MMIO doorbell, given the device's published
// EVENT word. The device is guaranteed awake only while it still has
// unconsumed work the driver already announced; once event has caught up to
// prevProd (modulo 2^32) the device may be parked and needs the doorbell.
// Free-running indices make this a signed distance check.
func ShouldRing(prevProd, event uint32) bool {
	return int32(event-prevProd) >= 0
}

// ValidSize reports whether n is an acceptable ring size: a nonzero power of
// two no larger than MaxEntries. Power-of-two sizes keep the free-running
// index arithmetic exact across uint32 wraparound.
func ValidSize(n uint64) bool {
	return n > 0 && n <= MaxEntries && n&(n-1) == 0
}

// DoorbellValid reports whether a doorbell announcing producer index prod is
// coherent with the device's consumer index cons on a ring of `entries`
// slots: the write may claim at most one full ring of not-yet-consumed
// descriptors. Indices free-run, so the distance is computed modulo 2^32.
func DoorbellValid(prod, cons, entries uint32) bool {
	return prod-cons <= entries
}

// DescSlot locates the submission-ring slot of free-running producer/consumer
// index idx.
func DescSlot(base int64, idx, entries uint32) int64 {
	return base + int64(idx%entries)*DescBytes
}

// CplSlot locates the completion-ring slot carrying sequence number seq
// (sequences start at 1; entry seq lives in slot (seq-1) % entries).
func CplSlot(base int64, seq, entries uint32) int64 {
	return base + int64((seq-1)%entries)*CplBytes
}

// EncodeDescriptor writes a request descriptor in the device wire format.
// The word at offset 20 — reserved (always zero) before protection
// information existed — carries the write-direction PI guard; requests
// without OpFlagPI still encode zero there, so the wire image is unchanged
// for non-PI traffic.
func EncodeDescriptor(b []byte, op, id uint32, lba uint64, count uint32, buf int64) {
	EncodeDescriptorPI(b, op, id, lba, count, buf, 0)
}

// EncodeDescriptorPI is EncodeDescriptor with an explicit guard word.
func EncodeDescriptorPI(b []byte, op, id uint32, lba uint64, count uint32, buf int64, guard uint32) {
	binary.BigEndian.PutUint32(b[0:], op)
	binary.BigEndian.PutUint32(b[4:], id)
	binary.BigEndian.PutUint64(b[8:], lba)
	binary.BigEndian.PutUint32(b[16:], count)
	binary.BigEndian.PutUint32(b[20:], guard)
	binary.BigEndian.PutUint64(b[24:], uint64(buf))
}

// DecodeDescriptorPI parses a request descriptor including its guard word.
func DecodeDescriptorPI(b []byte) (op, id uint32, lba uint64, count uint32, buf int64, guard uint32) {
	op = binary.BigEndian.Uint32(b[0:])
	id = binary.BigEndian.Uint32(b[4:])
	lba = binary.BigEndian.Uint64(b[8:])
	count = binary.BigEndian.Uint32(b[16:])
	guard = binary.BigEndian.Uint32(b[20:])
	buf = int64(binary.BigEndian.Uint64(b[24:]))
	return
}

// EncodeCompletion writes a completion entry. The word at offset 12 —
// formerly reserved — carries the read-direction PI guard (zero for non-PI
// traffic, keeping the wire image unchanged).
func EncodeCompletion(b []byte, id, status, seq uint32) {
	EncodeCompletionPI(b, id, status, seq, 0)
}

// EncodeCompletionPI is EncodeCompletion with an explicit guard word.
func EncodeCompletionPI(b []byte, id, status, seq, guard uint32) {
	binary.BigEndian.PutUint32(b[0:], id)
	binary.BigEndian.PutUint32(b[4:], status)
	binary.BigEndian.PutUint32(b[8:], seq)
	binary.BigEndian.PutUint32(b[12:], guard)
}

// DecodeCompletion parses a completion entry.
func DecodeCompletion(b []byte) (id, status, seq uint32) {
	id, status, seq, _ = DecodeCompletionPI(b)
	return
}

// DecodeCompletionPI parses a completion entry including its guard word.
func DecodeCompletionPI(b []byte) (id, status, seq, guard uint32) {
	return binary.BigEndian.Uint32(b[0:]), binary.BigEndian.Uint32(b[4:]),
		binary.BigEndian.Uint32(b[8:]), binary.BigEndian.Uint32(b[12:])
}

// StatusError converts a device status to an error (nil for StatusOK). Every
// ring driver maps completions through this one table.
func StatusError(status uint32) error {
	switch status {
	case StatusOK:
		return nil
	case StatusOutOfRange:
		return fmt.Errorf("nesc: request out of device range")
	case StatusNoSpace:
		return fmt.Errorf("nesc: no space (hypervisor denied allocation)")
	case StatusDisabled:
		return fmt.Errorf("nesc: function disabled")
	case StatusDMAFault:
		return fmt.Errorf("nesc: DMA fault")
	case StatusMediumError:
		return fmt.Errorf("nesc: unrecoverable medium error")
	case StatusAborted:
		return fmt.Errorf("nesc: request aborted by reset")
	case StatusIntegrityError:
		return fmt.Errorf("%w (unrecovered by device retries)", ErrIntegrity)
	case StatusBusy:
		return fmt.Errorf("%w (retry budget exhausted)", ErrBusy)
	default:
		return fmt.Errorf("nesc: device status %d", status)
	}
}
