// QoS: the §IV-D extension — the hypervisor programs per-VF weights and the
// NeSC DMA engine divides device bandwidth accordingly. Two tenants hammer
// the device; the demo runs once with equal weights and once at 4:1.
package main

import (
	"fmt"
	"log"
	"time"

	"nesc"
)

func run(weights [2]int) ([2]float64, error) {
	sim := nesc.New(nesc.Config{MediumMB: 128})
	var bw [2]float64
	err := sim.Run(func(ctx *nesc.Ctx) error {
		var vms [2]*nesc.VM
		for i := 0; i < 2; i++ {
			path := fmt.Sprintf("/t%d.img", i)
			if err := ctx.CreateImage(path, uint32(i+1), 16<<20, false); err != nil {
				return err
			}
			vm, err := ctx.StartVM(path, nesc.BackendNeSC, path, uint32(i+1))
			if err != nil {
				return err
			}
			vm.SetIOWeight(ctx, weights[i])
			vms[i] = vm
		}
		stop := false
		var bytes [2]int64
		var tasks []*nesc.Task
		for i := 0; i < 2; i++ {
			tasks = append(tasks, ctx.Go("load", func(tc *nesc.Ctx) error {
				chunk := make([]byte, 64<<10)
				var off int64
				for !stop {
					if err := vms[i].WriteAt(tc, chunk, off%(12<<20)); err != nil {
						return err
					}
					off += int64(len(chunk))
					bytes[i] += int64(len(chunk))
				}
				return nil
			}))
		}
		const warmup, window = 2 * time.Millisecond, 10 * time.Millisecond
		ctx.Sleep(warmup)
		var base [2]int64
		base[0], base[1] = bytes[0], bytes[1]
		ctx.Sleep(window)
		for i := 0; i < 2; i++ {
			bw[i] = float64(bytes[i]-base[i]) / 1e6 / window.Seconds()
		}
		stop = true
		for _, t := range tasks {
			if err := t.Wait(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	return bw, err
}

func main() {
	for _, weights := range [][2]int{{1, 1}, {4, 1}} {
		bw, err := run(weights)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("weights %d:%d -> tenant0 %.0f MB/s, tenant1 %.0f MB/s (ratio %.2f)\n",
			weights[0], weights[1], bw[0], bw[1], bw[0]/bw[1])
	}
	fmt.Println("the DMA engine's deficit-round-robin scheduler is work-conserving:")
	fmt.Println("unused high-priority bandwidth flows to the low-priority tenant")
}
