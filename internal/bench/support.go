package bench

import (
	"nesc/internal/sim"
	"nesc/internal/workload"
)

// RawTargetForTest exposes rawTarget for the repository-level benchmark
// harness (bench_test.go).
func RawTargetForTest(p *sim.Proc, pl *Platform, backend string) (workload.ByteTarget, error) {
	return pl.rawTarget(p, backend, rawImageBlocks)
}
