package bench

import (
	"fmt"

	"nesc/internal/extfs"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// Figure 12 (paper §VII-B): application-level speedups. Each application
// runs in a guest whose virtual disk is an image file on the hypervisor's
// filesystem ("the virtual storage device is stored as an image file ...
// and the hypervisor maps the file to the VM using either of the mapping
// facilities: virtio, emulation or a VF"), with a guest extent filesystem
// inside. Figure 12a reports NeSC's speedup over emulation, 12b over virtio.

// Fig12Apps are the applications of Table II (dd is covered by Figs. 9–10).
var Fig12Apps = []string{"OLTP", "Postmark", "SysBench"}

const fig12ImageBlocks = 80 * 1024 // 80 MB guest disk image

// fig12GuestFSParams is the guest filesystem configuration of the
// application experiments.
func fig12GuestFSParams() extfs.Params {
	return extfs.Params{InodeCount: 1024, JournalBlocks: 128, Mode: extfs.JournalMetadata}
}

func runApp(p *sim.Proc, app string, gfs *extfs.FS) (workload.Result, error) {
	wfs := NewWorkloadFS(gfs, 0)
	switch app {
	case "OLTP":
		return workload.OLTP{
			Rows:         20000,
			Transactions: 150,
			Seed:         1,
		}.Run(p, wfs)
	case "Postmark":
		return workload.Postmark{
			InitialFiles:   100,
			Transactions:   300,
			TransactionCPU: 100 * sim.Microsecond,
			Seed:           2,
		}.Run(p, wfs)
	case "SysBench":
		sb := workload.SysbenchIO{FileBytes: 16 << 20, Ops: 400, Seed: 3}
		f, err := sb.Prepare(p, wfs, "/sysbench.dat")
		if err != nil {
			return workload.Result{}, err
		}
		return sb.Run(p, f)
	default:
		return workload.Result{}, fmt.Errorf("bench: unknown app %q", app)
	}
}

// appRun is one application on one backend: a point of Figure 12.
type appRun struct{ app, backend string }

// fig12Runs runs each point on a fresh platform and returns the simulated
// runtimes.
func fig12Runs(cfg Config, runs []appRun) (map[appRun]sim.Time, error) {
	elapsed := map[appRun]sim.Time{}
	err := eachPoint(cfg, runs, nil, func(p *sim.Proc, pl *Platform, r appRun) error {
		vm, _, err := pl.directVM(p, "app", "/app.img", 1, fig12ImageBlocks, false,
			func(c *hypervisor.VMConfig) { c.Backend = backendKind(r.backend) })
		if err != nil {
			return err
		}
		gfs, err := vm.Kernel.Mount(p, true, fig12GuestFSParams())
		if err != nil {
			return err
		}
		res, err := runApp(p, r.app, gfs)
		elapsed[r] = res.Elapsed
		return err
	})
	return elapsed, err
}

// Fig12App runs one application on one backend and returns its simulated
// runtime — the figure's inner run, which the benchmarks call for single
// points.
func Fig12App(cfg Config, app, backend string) (sim.Time, error) {
	elapsed, err := fig12Runs(cfg, []appRun{{app, backend}})
	return elapsed[appRun{app, backend}], err
}

// Fig12 regenerates Figures 12a and 12b plus the absolute runtimes.
func Fig12(cfg Config) ([]*stats.Table, error) {
	var runs []appRun
	for _, backend := range VMBackends {
		for _, app := range Fig12Apps {
			runs = append(runs, appRun{app, backend})
		}
	}
	elapsed, err := fig12Runs(cfg, runs)
	if err != nil {
		return nil, err
	}
	abs := stats.NewTable("Figure 12 (underlying data): application runtime", "application", "ms", VMBackends...)
	a := stats.NewTable("Figure 12a: application speedup of NeSC over device emulation", "application", "x", "Speedup")
	b := stats.NewTable("Figure 12b: application speedup of NeSC over virtio", "application", "x", "Speedup")
	for _, app := range Fig12Apps {
		for _, backend := range VMBackends {
			abs.Set(app, backend, float64(elapsed[appRun{app, backend}])/float64(sim.Millisecond))
		}
		nesc := float64(elapsed[appRun{app, BackendNeSC}])
		a.SetRow(app, float64(elapsed[appRun{app, BackendEmul}])/nesc)
		b.SetRow(app, float64(elapsed[appRun{app, BackendVirt}])/nesc)
	}
	a.Note("runtime ratio emulation/NeSC; >1 means NeSC is faster")
	b.Note("runtime ratio virtio/NeSC; >1 means NeSC is faster")
	return []*stats.Table{a, b, abs}, nil
}
