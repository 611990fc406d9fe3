package sim

// Link models a bandwidth-serialized, store-and-forward transport such as a
// PCIe link or a storage medium's data port. Concurrent transfers are
// serialized at the link's bandwidth; each transfer additionally pays a fixed
// propagation latency after its bytes have been serialized.
//
// Transfers optionally pay a fixed per-transfer overhead in bytes (header,
// framing, per-TLP overhead folded into an average) so small transfers see
// realistic efficiency loss.
type Link struct {
	eng         *Engine
	bytesPerSec float64
	latency     Time
	overhead    int64 // extra serialized bytes per transfer
	nextFree    Time

	// Bytes counts payload bytes accepted (excludes overhead).
	Bytes int64
	// Transfers counts accepted transfers.
	Transfers int64
}

// NewLink returns a link on engine e with the given payload bandwidth
// (bytes/second; <=0 means infinitely fast), propagation latency, and fixed
// per-transfer overhead bytes.
func NewLink(e *Engine, bytesPerSec float64, latency Time, overheadBytes int64) *Link {
	return &Link{eng: e, bytesPerSec: bytesPerSec, latency: latency, overhead: overheadBytes}
}

// Transfer moves n payload bytes across the link and invokes done when the
// last byte (plus propagation latency) has arrived. Multiple in-flight
// transfers queue behind one another at the serialization point.
func (l *Link) Transfer(n int64, done func()) {
	l.Bytes += n
	l.Transfers++
	start := l.nextFree
	if now := l.eng.now; start < now {
		start = now
	}
	ser := BytesTime(n+l.overhead, l.bytesPerSec)
	l.nextFree = start + ser
	l.eng.At(l.nextFree+l.latency, done)
}

// TransferP is the process-style form of Transfer.
func (l *Link) TransferP(p *Proc, n int64) {
	p.Wait(func(done func()) { l.Transfer(n, done) })
}
