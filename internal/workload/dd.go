package workload

import (
	"fmt"

	"nesc/internal/sim"
)

// DD is the GNU dd microbenchmark of §VII-A: sequential raw transfers with a
// configurable block size, queue depth 1.
type DD struct {
	// BlockBytes is the dd bs= parameter.
	BlockBytes int
	// TotalBytes bounds the transfer (count = TotalBytes / BlockBytes).
	TotalBytes int64
	// Write selects the direction.
	Write bool
	// StartOffset lets sweeps avoid re-touching the same blocks.
	StartOffset int64
}

// Run executes the transfer against t.
func (d DD) Run(p *sim.Proc, t ByteTarget) (Result, error) {
	res := Result{Name: fmt.Sprintf("dd bs=%d %s", d.BlockBytes, map[bool]string{true: "write", false: "read"}[d.Write])}
	if d.BlockBytes <= 0 || d.TotalBytes <= 0 {
		return res, fmt.Errorf("workload: bad dd geometry")
	}
	count := d.TotalBytes / int64(d.BlockBytes)
	if count == 0 {
		count = 1
	}
	size := t.Size()
	err := Timed(p, &res, count, int64(d.BlockBytes), func(i int64) error {
		off := d.StartOffset + i*int64(d.BlockBytes)
		if off+int64(d.BlockBytes) > size {
			off = (off + int64(d.BlockBytes)) % size // wrap within the device
			off -= off % int64(d.BlockBytes)
		}
		if d.Write {
			return t.WriteAt(p, off, d.BlockBytes)
		}
		return t.ReadAt(p, off, d.BlockBytes)
	})
	return res, err
}
