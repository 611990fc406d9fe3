// Package blockdev models the storage medium behind the NeSC controller.
//
// The paper's prototype backs the controller with 1 GB of on-board DDR3 and
// explicitly does "not emulate a specific access latency technology" — the
// medium is a raw logical-block-address space with a latency and a bandwidth.
// We split the model in two:
//
//   - Store: the functional content (bytes per LBA), synchronous and
//     timeless, shared by the device pipeline and by white-box tests.
//   - Medium: the timed access port, with per-operation latency and
//     direction-specific bandwidth serialization. The Figure-2 experiment
//     sweeps the bandwidth of a Medium to emulate storage devices of
//     different speeds, just as the paper throttles an in-memory disk.
package blockdev

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"runtime"
	"slices"

	"nesc/internal/fault"
	"nesc/internal/sim"
)

// castagnoli is the CRC-32C polynomial table used for T10 DIF-style guard
// tags (the same polynomial real protection-information formats use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockGuard computes the guard tag of one block image.
func BlockGuard(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// writeRecord is one block's pre-image, captured when write logging is on so
// a crash harness can roll the store back to an earlier consistent point.
type writeRecord struct {
	lba   int64
	data  []byte
	guard uint32
}

// Store is the functional block space: numBlocks blocks of blockSize bytes,
// each carrying an out-of-band CRC-32C guard tag maintained on write.
//
// The block space is flat; its backing is made in fixed chunks at first write,
// outside the Go heap (see newChunk), and goes when the store does. A block in
// a chunk never written reads as zeros and carries the zero block's guard.
type Store struct {
	blockSize int
	numBlocks int64
	// chunks[i] backs the 1<<chunkShift blocks from i<<chunkShift, the last
	// one as many as are left; nil until one of them is written.
	chunks     [][]byte
	chunkShift uint
	guards     []uint32
	zeroGuard  uint32

	logging  bool
	writeLog []writeRecord
}

// chunkBytes bounds the size of one backing allocation: a chunk is the largest
// power-of-two number of blocks that fits, and at least one block.
const chunkBytes = 256 << 10

// NewStore returns a zeroed block space.
func NewStore(blockSize int, numBlocks int64) *Store {
	if blockSize <= 0 || numBlocks <= 0 {
		panic("blockdev: invalid geometry")
	}
	s := &Store{
		blockSize:  blockSize,
		numBlocks:  numBlocks,
		chunkShift: uint(bits.Len(uint(max(1, chunkBytes/blockSize))) - 1),
		guards:     make([]uint32, numBlocks),
		zeroGuard:  BlockGuard(make([]byte, blockSize)),
	}
	s.chunks = make([][]byte, (numBlocks-1)>>s.chunkShift+1)
	for i := range s.guards {
		s.guards[i] = s.zeroGuard
	}
	runtime.SetFinalizer(s, func(s *Store) { freeChunks(s.chunks) })
	return s
}

// BlockSize reports the block size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// NumBlocks reports the number of addressable blocks.
func (s *Store) NumBlocks() int64 { return s.numBlocks }

func (s *Store) checkRange(lba int64, n int) error {
	if n%s.blockSize != 0 {
		return fmt.Errorf("blockdev: buffer of %d bytes not a multiple of block size %d", n, s.blockSize)
	}
	blocks := int64(n / s.blockSize)
	if lba < 0 || lba > s.numBlocks-blocks {
		return fmt.Errorf("blockdev: access [%d, %d) outside device of %d blocks", lba, lba+blocks, s.numBlocks)
	}
	return nil
}

// span locates the front of an n-byte access at lba: its chunk, the byte
// offset of lba in that chunk, and how many of the n bytes the chunk holds.
// What is left of the access starts at block (chunk+1)<<chunkShift.
func (s *Store) span(lba int64, n int) (chunk, off, k int) {
	in := int(lba & (1<<s.chunkShift - 1))
	return int(lba >> s.chunkShift), in * s.blockSize, min(n, (1<<s.chunkShift-in)*s.blockSize)
}

// ReadBlocks copies whole blocks starting at lba into p (whose length must
// be a block multiple).
func (s *Store) ReadBlocks(lba int64, p []byte) error {
	if err := s.checkRange(lba, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		c, off, k := s.span(lba, len(p))
		if ch := s.chunks[c]; ch != nil {
			copy(p[:k], ch[off:])
		} else {
			clear(p[:k])
		}
		lba, p = int64(c+1)<<s.chunkShift, p[k:]
	}
	runtime.KeepAlive(s) // its chunks go with it
	return nil
}

// WriteBlocks copies whole blocks from p to the store starting at lba,
// recomputing each block's guard tag (and logging pre-images when the crash
// write log is enabled).
func (s *Store) WriteBlocks(lba int64, p []byte) error {
	if err := s.checkRange(lba, len(p)); err != nil {
		return err
	}
	for bs := s.blockSize; len(p) > 0; lba, p = lba+1, p[bs:] {
		blk := s.Block(lba)
		if s.logging {
			s.writeLog = append(s.writeLog, writeRecord{lba: lba, data: slices.Clone(blk), guard: s.guards[lba]})
		}
		copy(blk, p[:bs])
		s.guards[lba] = BlockGuard(p[:bs])
	}
	return nil
}

// Block returns the live bytes of one block, backing its chunk if nothing
// has. A write through the view changes the medium behind the guard tags'
// back, which is how a test plants silent corruption.
func (s *Store) Block(lba int64) []byte {
	c, off, k := s.span(lba, s.blockSize)
	if s.chunks[c] == nil {
		blocks := min(1<<s.chunkShift, s.numBlocks-int64(c)<<s.chunkShift)
		s.chunks[c] = newChunk(int(blocks) * s.blockSize)
	}
	return s.chunks[c][off : off+k]
}

// Guard returns the stored guard tag for one block.
func (s *Store) Guard(lba int64) uint32 { return s.guards[lba] }

// VerifyGuards recomputes every block's guard and returns the LBAs whose
// stored tag no longer matches the data — the full-device scrub/fsck check
// used by the crash harness. A clean device returns an empty slice.
func (s *Store) VerifyGuards() []int64 {
	var bad []int64
	for b := int64(0); b < s.numBlocks; b++ {
		guard := s.zeroGuard
		if c, off, k := s.span(b, s.blockSize); s.chunks[c] != nil {
			guard = BlockGuard(s.chunks[c][off : off+k])
		}
		if guard != s.guards[b] {
			bad = append(bad, b)
		}
	}
	return bad
}

// EnableWriteLog starts recording per-block pre-images on every write. The
// log models the device's completion-ordered write stream: a crash that
// loses the last j block writes is simulated by Rollback(j).
func (s *Store) EnableWriteLog() {
	s.logging = true
	s.writeLog = s.writeLog[:0]
}

// WriteLogLen reports how many block writes the log currently holds.
func (s *Store) WriteLogLen() int { return len(s.writeLog) }

// Rollback undoes the last n logged block writes (restoring data and guard
// pre-images) and truncates them from the log. It returns how many writes
// were actually undone (capped by the log length).
func (s *Store) Rollback(n int) int {
	if n > len(s.writeLog) {
		n = len(s.writeLog)
	}
	for i := 0; i < n; i++ {
		rec := s.writeLog[len(s.writeLog)-1-i]
		copy(s.Block(rec.lba), rec.data)
		s.guards[rec.lba] = rec.guard
	}
	s.writeLog = s.writeLog[:len(s.writeLog)-n]
	return n
}

// MediumParams sets the timing of the access port.
type MediumParams struct {
	// ReadLatency / WriteLatency are fixed per-operation costs (command
	// decode, row activation, ...).
	ReadLatency  sim.Time
	WriteLatency sim.Time
	// ReadBandwidth / WriteBandwidth serialize data movement, bytes/second.
	ReadBandwidth  float64
	WriteBandwidth float64
}

// DefaultMediumParams matches the prototype's on-board DDR3 port: the medium
// slightly out-runs the controller so the PCIe/controller path, not the
// medium, sets the ~800 MB/s read and ~1 GB/s write peaks.
func DefaultMediumParams() MediumParams {
	return MediumParams{
		ReadLatency:    300 * sim.Nanosecond,
		WriteLatency:   200 * sim.Nanosecond,
		ReadBandwidth:  1.0e9,
		WriteBandwidth: 1.4e9,
	}
}

// ErrMedium marks an access that failed at the medium itself (a transient or
// latent sector error), as opposed to a range/programming error. Callers use
// IsMediumError to decide whether a retry can help.
var ErrMedium = errors.New("blockdev: medium error")

// IsMediumError reports whether err is a (possibly wrapped) medium error.
func IsMediumError(err error) bool { return errors.Is(err, ErrMedium) }

// ErrIntegrity marks a read whose payload failed guard-tag verification: the
// medium returned data, but the data is wrong. Like medium errors it is
// retryable (a transient flip won't recur), and like them it is distinct
// from range/programming errors.
var ErrIntegrity = errors.New("blockdev: integrity error")

// IsIntegrityError reports whether err is a (possibly wrapped) guard-tag
// verification failure.
func IsIntegrityError(err error) bool { return errors.Is(err, ErrIntegrity) }

// Medium is the timed access port to a Store.
type Medium struct {
	eng       *sim.Engine
	store     *Store
	readPort  *sim.Link
	writePort *sim.Link
	params    MediumParams
	inj       *fault.Injector
	noGuard   bool
	// dev is this medium's device index within a multi-device fabric; the
	// injector's DeviceAccess gate (kill/partition latches) keys on it.
	dev int

	// Reads/Writes count operations; ReadBytes/WriteBytes count payloads.
	Reads, Writes         int64
	ReadBytes, WriteBytes int64
	// ReadFaults/WriteFaults count operations failed by fault injection.
	ReadFaults, WriteFaults int64
	// IntegrityErrors counts reads that failed guard verification;
	// RecoveryReads counts slow-path ECC recovery reads.
	IntegrityErrors, RecoveryReads int64
}

// NewMedium wraps store with a timed port on engine eng.
func NewMedium(eng *sim.Engine, store *Store, p MediumParams) *Medium {
	return &Medium{
		eng:       eng,
		store:     store,
		readPort:  sim.NewLink(eng, p.ReadBandwidth, p.ReadLatency, 0),
		writePort: sim.NewLink(eng, p.WriteBandwidth, p.WriteLatency, 0),
		params:    p,
	}
}

// SetInjector installs a fault injector on the access port (nil disables
// injection).
func (m *Medium) SetInjector(inj *fault.Injector) { m.inj = inj }

// SetGuardCheck enables or disables read-side guard verification (on by
// default; the integrity ablation bench turns it off).
func (m *Medium) SetGuardCheck(on bool) { m.noGuard = !on }

// SetDeviceIndex assigns the medium's device identity within a multi-device
// fabric (default 0). Device-kill and partition faults key on it.
func (m *Medium) SetDeviceIndex(dev int) { m.dev = dev }

// deviceGate consults the injector's device-level latches. A dead or
// partitioned device fails every access loudly — the DTU's bounded retries
// then surface StatusMediumError, which is what drives the fabric's health
// state machine.
func (m *Medium) deviceGate() bool {
	return m.inj.DeviceAccess(m.dev, m.eng.Now()).Fault
}

// Store returns the functional content behind the port.
func (m *Medium) Store() *Store { return m.store }

// Params returns the current timing parameters.
func (m *Medium) Params() MediumParams { return m.params }

// ReadP fetches len(buf) bytes (a whole number of blocks) starting at lba and
// blocks the process until the data has left the medium (or the medium has
// reported an error, still after the access time). The copy into buf happens
// at completion time. A malformed request (range/alignment) fails at once.
func (m *Medium) ReadP(p *sim.Proc, lba int64, buf []byte) error {
	return m.access(p, false, lba, buf)
}

// WriteP stores len(buf) bytes (a whole number of blocks) at lba and blocks
// the process until the medium has absorbed them (or reported an error). The
// parked caller lends buf until WriteP returns: what lands is buf at
// absorption. A faulted write leaves the store untouched.
func (m *Medium) WriteP(p *sim.Proc, lba int64, buf []byte) error {
	return m.access(p, true, lba, buf)
}

// access is the one timed operation behind ReadP and WriteP.
func (m *Medium) access(p *sim.Proc, write bool, lba int64, buf []byte) error {
	if err := m.store.checkRange(lba, len(buf)); err != nil {
		return err
	}
	n, bs := int64(len(buf)), m.store.blockSize
	port, latency, bandwidth, verb := m.readPort, m.params.ReadLatency, m.params.ReadBandwidth, "read"
	ops, moved, faults := &m.Reads, &m.ReadBytes, &m.ReadFaults
	if write {
		port, latency, bandwidth, verb = m.writePort, m.params.WriteLatency, m.params.WriteBandwidth, "write"
		ops, moved, faults = &m.Writes, &m.WriteBytes, &m.WriteFaults
	}
	*ops++
	*moved += n
	if m.deviceGate() {
		// Dead or partitioned device: fail after the access latency without
		// drawing from the per-site medium streams.
		port.TransferP(p, n)
		*faults++
		return fmt.Errorf("%w: device %d unreachable, %s at lba %d", ErrMedium, m.dev, verb, lba)
	}
	dec := m.inj.MediumAccess(write, lba, n/int64(bs))
	// Fail-slow profiles add chronic extra latency on top of any one-shot
	// injected delay; the base cost the slowdown factor scales is the
	// operation's own service time (fixed latency + serialization).
	slow := m.inj.DegradeDelay(m.dev, latency+sim.BytesTime(n, bandwidth), m.eng.Now())
	port.TransferP(p, n)
	p.Sleep(dec.Delay + slow)
	if dec.Fault {
		*faults++
		return fmt.Errorf("%w: %s of %d blocks at lba %d", ErrMedium, verb, n/int64(bs), lba)
	}
	if write {
		return m.store.WriteBlocks(lba, buf)
	}
	if err := m.store.ReadBlocks(lba, buf); err != nil {
		return err
	}
	for _, b := range dec.CorruptBlocks {
		off := int(b-lba) * bs
		fault.Flip(buf[off:off+bs], uint64(b))
	}
	if !m.noGuard {
		for i := 0; i*bs < len(buf); i++ {
			if BlockGuard(buf[i*bs:(i+1)*bs]) != m.store.guards[lba+int64(i)] {
				m.IntegrityErrors++
				return fmt.Errorf("%w: guard mismatch at lba %d", ErrIntegrity, lba+int64(i))
			}
		}
	}
	return nil
}

// recoveryPenalty is the extra per-operation latency of a heroic recovery
// read relative to a normal one (drive-internal ECC retries, read-retry with
// shifted thresholds, ...).
const recoveryPenalty = 8

// RecoverP performs a slow-path recovery read: the medium's internal ECC
// machinery reconstructs the true sector contents, bypassing whatever made
// the fast-path read come back corrupted. It costs recoveryPenalty times the
// normal read latency plus the transfer time, consults no fault injector,
// and always returns the store's true bytes. Scrubbers use it to source the
// repair data for a rewrite.
func (m *Medium) RecoverP(p *sim.Proc, lba int64, buf []byte) error {
	if err := m.store.checkRange(lba, len(buf)); err != nil {
		return err
	}
	m.Reads++
	m.RecoveryReads++
	m.ReadBytes += int64(len(buf))
	m.readPort.TransferP(p, int64(len(buf)))
	p.Sleep(recoveryPenalty * m.params.ReadLatency)
	return m.store.ReadBlocks(lba, buf)
}
