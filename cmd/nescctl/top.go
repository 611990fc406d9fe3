package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"nesc"
)

// runTopDemo drives the observability layer end to end through the public
// API and finishes with the WriteTop health snapshot: two tenants share one
// device, an aggressor floods it with writes, then a fail-slow pulse
// degrades the medium under the victim. The snapshot shows the per-tenant
// SLO state (with the burn alert the pulse fired), the anomaly scoreboard,
// and the p99 explainer's verdict on where each tenant's tail went.
func runTopDemo(w io.Writer) error {
	sim := nesc.New(nesc.Config{
		Attribution:      true,
		ScoreboardEvents: 256,
		SLO: &nesc.SLOObjective{
			Latency:       250 * time.Microsecond,
			Goal:          0.90,
			ShortWindow:   2 * time.Millisecond,
			LongWindow:    6 * time.Millisecond,
			BurnThreshold: 3,
			MinSamples:    4,
		},
		Fault: &nesc.FaultPlan{Seed: 5}, // empty plan: just arms the injector
	})
	say := narrator(w)
	err := sim.Run(func(ctx *nesc.Ctx) error {
		if err := ctx.HostMkdir("/images", 0); err != nil {
			return err
		}
		if err := ctx.CreateImage("/images/victim.img", 1001, 4<<20, false); err != nil {
			return err
		}
		if err := ctx.CreateImage("/images/agg.img", 1002, 4<<20, false); err != nil {
			return err
		}
		victim, err := ctx.StartVM("victim", nesc.BackendNeSC, "/images/victim.img", 1001)
		if err != nil {
			return err
		}
		agg, err := ctx.StartVM("agg", nesc.BackendNeSC, "/images/agg.img", 1002)
		if err != nil {
			return err
		}
		say("two tenants up on one device; attribution, a 90%%-under-250us SLO, and a 256-event scoreboard armed")

		pattern := bytes.Repeat([]byte{0x5A}, 4096)
		for off := int64(0); off < 256<<10; off += int64(len(pattern)) {
			if err := victim.WriteAt(ctx, pattern, off); err != nil {
				return err
			}
		}

		// The aggressor streams writes for the whole victim run: enough to
		// shape the victim's tail, not enough to breach its SLO on its own.
		stop := false
		noise := ctx.Go("top-agg", func(c *nesc.Ctx) error {
			blob := bytes.Repeat([]byte{0xA6}, 4096)
			for i := 0; !stop; i++ {
				if err := agg.WriteAt(c, blob, int64(i%64)*int64(len(blob))); err != nil {
					return err
				}
				c.Sleep(20 * time.Microsecond)
			}
			return nil
		})

		// The victim's paced reads, with a fail-slow pulse opening mid-run:
		// the medium keeps answering, just chronically late.
		got := make([]byte, 4096)
		for i := 0; i < 360; i++ {
			switch i {
			case 200:
				ctx.Degrade(0, 0, 300*time.Microsecond, 0)
				say("fail-slow pulse opened at %v: +300us on every medium access, no errors", ctx.Now())
			case 280:
				ctx.ClearDegradations(0)
				say("pulse closed at %v after 80 degraded reads", ctx.Now())
			}
			if err := victim.ReadAt(ctx, got, int64(i%64)*4096); err != nil {
				return err
			}
			ctx.Sleep(10 * time.Microsecond)
		}
		ctx.ClearDegradations(0)
		stop = true
		if err := noise.Wait(ctx); err != nil {
			return err
		}
		say("victim ran 360 paced reads through the noise and the pulse; pulse cleared at %v", ctx.Now())
		victim.Stop(ctx)
		agg.Stop(ctx)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	return sim.WriteTop(w)
}
