package bench

import (
	"runtime"
	"testing"

	"nesc/internal/sim"
)

// TestTelemetryOffWriteAllocs pins what one 1 KB write through a directly
// assigned VF allocates with no telemetry sink attached — guest kernel, ring
// driver, controller pipeline, medium, completion. A later telemetry consumer
// (or anything else) that leaks an allocation into the off path trips it.
// The ceiling is the measured count (61 when the spine landed, 57 before the
// process-form DMA and the medium stopped copying the payload); lower it when
// the path gets cheaper.
func TestTelemetryOffWriteAllocs(t *testing.T) {
	const ceiling = 51
	pl := NewPlatform(DefaultConfig())
	var allocs float64
	err := pl.Run(func(p *sim.Proc) error {
		tgt, err := pl.RawTarget(p, BackendNeSC, rawImageBlocks)
		if err != nil {
			return err
		}
		var werr error
		write := func() {
			if err := tgt.WriteAt(p, 0, 1024); err != nil {
				werr = err
			}
		}
		for i := 0; i < 8; i++ {
			write() // warm the BTLB and every free list
		}
		allocs = testing.AllocsPerRun(200, write)
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > ceiling {
		t.Errorf("a 1 KB write with telemetry off allocates %v times, ceiling %d", allocs, ceiling)
	}
	t.Logf("%v allocs per 1 KB write", allocs)
}

// TestPlatformCostsWhatItTouches pins what building the paper's platform
// allocates before anything runs on it: 512 MB of host memory and a 128 MB
// medium are address spaces, backed where they are first written (640.5 MB
// when both were one slice each; the medium's guard table is the half megabyte
// that is left).
func TestPlatformCostsWhatItTouches(t *testing.T) {
	const ceiling = 4 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pl := NewPlatform(DefaultConfig())
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > ceiling {
		t.Errorf("NewPlatform(DefaultConfig()) allocated %d bytes, ceiling %d", got, ceiling)
	}
	t.Logf("NewPlatform(DefaultConfig()) allocates %d KB", got>>10)
	runtime.KeepAlive(pl)
}
