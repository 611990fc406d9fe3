//go:build linux || darwin

package blockdev

import (
	"fmt"
	"syscall"
)

// newChunk maps n zeroed bytes outside the Go heap. The medium is most of
// what a simulation keeps live; in the heap it would set the collector's
// goal, so the heap would swing by the medium's size between collections and
// a process's peak memory would depend on where in that swing it is read.
func newChunk(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("blockdev: mapping a %d-byte chunk: %v", n, err))
	}
	return b
}

// freeChunks unmaps the chunks newChunk made.
func freeChunks(chunks [][]byte) {
	for _, c := range chunks {
		if c != nil {
			_ = syscall.Munmap(c)
		}
	}
}
