//go:build !linux && !darwin

package blockdev

// newChunk makes n zeroed bytes in the Go heap, where anonymous mappings are
// not used; the collector frees them with their store.
func newChunk(n int) []byte { return make([]byte, n) }

func freeChunks([][]byte) {}
