//go:build hostmemlong

package hostmem

import "testing"

// TestAllocatorMatchesReferenceModelLong is the differential test at full size
// (4 MB, 200k steps, ≈ 15 s): `make hostmem-long`, which ci runs.
func TestAllocatorMatchesReferenceModelLong(t *testing.T) {
	allocatorMatchesReferenceModel(t, 4<<20, 200_000, 40_000)
}
