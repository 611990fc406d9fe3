package bench

import (
	"nesc/internal/cas"
	"nesc/internal/core"
	"nesc/internal/fabric"
	"nesc/internal/guest"
)

// The counter catalogue: every platform counter is declared here exactly
// once, and both of its surfaces are produced from the declaration — the
// public nesc.Stats snapshot (Simulation.Stats fills each named field from
// its row's getter) and the metrics registry's gauge families (NewPlatform
// registers each row that names a family), so the two cannot disagree.
//
// Not here: the labelled per-instance series ({vf} function gauges and
// {vf,q} driver-queue gauges in core/telemetry.go, per-tenant SLO gauges, per-row
// attribution gauges and per-kind scoreboard counts in slo). Each is
// declared once by the package that creates the instance and registered at
// that moment, because a capped family keeps the series that registered
// first. None of them backs a Stats field.
//
// Per-device counters read device 0 — d0 below is the one place that says so
// (per-device series are ROADMAP item 6); fleet-wide aggregates (driver
// recovery, fabric, cas) say so in their help text.

// Counter is one catalogue row.
type Counter struct {
	// Field is the nesc.Stats field the counter fills ("" = registry only).
	Field string
	// Family is its unlabelled registry gauge family ("" = Stats only; Help
	// then records why).
	Family string
	Help   string
	// Get reads the live value. Counts are exact in a float64 up to 2^53.
	Get func() float64
}

// Counters returns the platform's catalogue. The getters are bound to this
// platform; the slice is built once.
func (pl *Platform) Counters() []Counter {
	if pl.counters != nil {
		return pl.counters
	}
	d0 := pl.Hyp.Device(0)
	ctl, h, fab, med, inj, tel := d0.Ctl, pl.Hyp, pl.Fab, d0.Ctl.Medium, pl.Inj, pl.Cfg.Tel
	i64 := func(v *int64) func() float64 { return func() float64 { return float64(*v) } }
	fnc := func(get func(core.FnCounters) int64) func() float64 {
		return func() float64 { return float64(get(ctl.Counters())) }
	}
	drv := func(get func(guest.QueueCounters) int64) func() float64 {
		return func() float64 { return float64(get(h.RecoveryStats())) }
	}
	fbr := func(get func(fabric.FleetStats) int64) func() float64 {
		return func() float64 { return float64(get(pl.Mirrors.Stats())) }
	}
	store := func(get func(cas.Stats) int64) func() float64 {
		return func() float64 { return float64(get(pl.CAS.Store.Stats())) }
	}
	cache := func(get func(cas.CacheStats) int64) func() float64 {
		return func() float64 { return float64(get(pl.CAS.CacheStats())) }
	}
	guardErrs := i64(&med.IntegrityErrors)
	piMismatches := drv(func(s guest.QueueCounters) int64 { return s.PIMismatches })
	piWriteErrs := drv(func(s guest.QueueCounters) int64 { return s.PIWriteErrors })

	rows := []Counter{
		{"BTLBHitRate", "nesc_device_btlb_hit_rate", "BTLB hits / lookups", ctl.BTLBStats.Rate},
		{"BTLBHits", "nesc_device_btlb_hits_total", "BTLB lookup hits", i64(&ctl.BTLBStats.Hits)},
		{"BTLBMisses", "nesc_device_btlb_misses_total", "BTLB lookup misses", i64(&ctl.BTLBStats.Misses)},
		{"WalkNodeReads", "nesc_device_walk_node_reads_total", "extent-tree node DMA reads", i64(&ctl.WalkNodeReads)},
		{"MissInterrupts", "nesc_hyp_miss_interrupts_total", "serviced translation-miss interrupts", i64(&h.MissInterrupts)},
		{"MediumReadBytes", "nesc_medium_read_bytes_total", "bytes read from the medium", i64(&med.ReadBytes)},
		{"MediumWriteBytes", "nesc_medium_write_bytes_total", "bytes written to the medium", i64(&med.WriteBytes)},
		{"DMAReadBytes", "nesc_fabric_dma_read_bytes_total", "device-initiated PCIe reads", i64(&fab.DMAReadBytes)},
		{"DMAWriteBytes", "nesc_fabric_dma_write_bytes_total", "device-initiated PCIe writes", i64(&fab.DMAWriteBytes)},
		{"VirtualTime", "", "the simulation clock is the export's time base, not a signal of its own",
			func() float64 { return float64(pl.Eng.Now()) }},

		{"MediumErrors", "nesc_device_medium_errors_total", "chunks that exhausted medium retries", fnc(func(c core.FnCounters) int64 { return c.MediumErrors })},
		{"MediumRetries", "nesc_device_medium_retries_total", "medium retry attempts", fnc(func(c core.FnCounters) int64 { return c.MediumRetries })},
		{"DMAFaultsInjected", "nesc_fabric_dma_faults_injected_total", "DMA transfers rejected on the wire by fault injection", i64(&fab.DMAFaultsInjected)},
		{"DroppedMSIs", "nesc_fabric_msis_dropped_total", "interrupts lost on the wire", i64(&fab.DroppedMSIs)},
		{"FetchDrops", "nesc_device_fetch_drops_total", "doorbells lost to descriptor-fetch DMA errors", fnc(func(c core.FnCounters) int64 { return c.FetchDrops })},
		{"CplDrops", "nesc_device_cpl_drops_total", "completions lost to completion-ring DMA errors", fnc(func(c core.FnCounters) int64 { return c.CplDrops })},
		{"DriverTimeouts", "nesc_driver_timeouts_total", "request attempts that hit their deadline", drv(func(s guest.QueueCounters) int64 { return s.Timeouts })},
		{"DriverResubmits", "nesc_driver_resubmits_total", "requests reissued after timeout or abort", drv(func(s guest.QueueCounters) int64 { return s.Resubmits })},
		{"PolledCompletions", "nesc_driver_polled_cpls_total", "completions recovered by ring polling", drv(func(s guest.QueueCounters) int64 { return s.PolledCompletions })},
		{"StaleCompletions", "nesc_driver_stale_cpls_total", "ring completions whose id had no waiter", drv(func(s guest.QueueCounters) int64 { return s.StaleCompletions })},
		{"SeqGaps", "nesc_driver_seq_gaps_total", "completion sequence gaps observed", drv(func(s guest.QueueCounters) int64 { return s.SeqGaps })},
		{"VFResets", "nesc_hyp_vf_resets_total", "function-level resets issued", i64(&h.VFResets)},
		{"MissFaults", "nesc_hyp_miss_faults_total", "misses failed by fault injection", i64(&h.MissFaults)},
		{"BadRingWrites", "nesc_device_bad_ring_writes_total", "rejected ring-size register writes", fnc(func(c core.FnCounters) int64 { return c.BadRingSizes })},
		{"BadDoorbells", "nesc_device_bad_doorbells_total", "ignored incoherent doorbell writes", fnc(func(c core.FnCounters) int64 { return c.BadDoorbells })},

		{"IntegrityErrors", "nesc_device_integrity_errors_total", "requests latched StatusIntegrityError", fnc(func(c core.FnCounters) int64 { return c.IntegrityErrors })},
		{"IntegrityRepairs", "nesc_device_integrity_repairs_total", "integrity failures healed by retry or scrub", fnc(func(c core.FnCounters) int64 { return c.IntegrityRepairs })},
		{"CorruptionsDetected", "", "composite of nesc_medium_guard_errors_total + nesc_driver_pi_mismatches_total + " +
			"nesc_driver_pi_write_errors_total, each exported individually",
			func() float64 { return guardErrs() + piMismatches() + piWriteErrs() }},
		{"PIMismatches", "nesc_driver_pi_mismatches_total", "driver-detected read-guard mismatches", piMismatches},
		{"PIWriteErrors", "nesc_driver_pi_write_errors_total", "integrity-error completions the drivers observed", piWriteErrs},
		{"RootCauseOverrides", "nesc_driver_root_cause_overrides_total", "failures surfacing an earlier attempt's integrity root cause", drv(func(s guest.QueueCounters) int64 { return s.RootCauseOverrides })},
		{"MediumGuardErrors", "nesc_medium_guard_errors_total", "medium-level guard-check failures", guardErrs},
		{"RecoveryReads", "nesc_medium_recovery_reads_total", "mirror-recovery reads served by the medium", i64(&med.RecoveryReads)},
		{"ScrubPasses", "nesc_scrub_passes_total", "completed background scrub passes", i64(&h.ScrubPasses)},
		{"ScrubBlocks", "nesc_scrub_blocks_total", "blocks verified by the scrubber", i64(&h.ScrubBlocks)},
		{"ScrubRepairs", "nesc_scrub_repairs_total", "device repairs observed during scrub passes", i64(&h.ScrubRepairs)},
		{"ScrubChunks", "nesc_device_scrub_chunks_total", "verify chunks processed", i64(&ctl.ScrubChunks)},

		{"AdmitRejects", "nesc_device_admit_rejects_total", "requests fast-failed StatusBusy by per-VF admission control", fnc(func(c core.FnCounters) int64 { return c.AdmitRejects })},
		{"DeadlineExpirations", "nesc_device_deadline_expirations_total", "requests or chunks completed StatusBusy past their deadline", i64(&ctl.DeadlineExpirations)},
		{"BusyRejects", "nesc_driver_busy_rejects_total", "submissions the device fast-failed StatusBusy (admission control or deadline)", drv(func(s guest.QueueCounters) int64 { return s.BusyRejects })},
		{"HedgedReads", "nesc_fabric_hedged_reads_total", "speculative second reads launched", fbr(func(s fabric.FleetStats) int64 { return s.HedgedReads })},
		{"HedgeWins", "nesc_fabric_hedge_wins_total", "hedges that delivered the data first", fbr(func(s fabric.FleetStats) int64 { return s.HedgeWins })},
		{"Quarantines", "nesc_fabric_quarantines_total", "legs flagged fail-slow and pulled from read steering", fbr(func(s fabric.FleetStats) int64 { return s.Quarantines })},
		{"Rejoins", "nesc_fabric_rejoins_total", "quarantined legs readmitted to read steering", fbr(func(s fabric.FleetStats) int64 { return s.Rejoins })},
		{"ProbeReads", "nesc_fabric_probe_reads_total", "reads steered to the worst leg to refresh its estimate", fbr(func(s fabric.FleetStats) int64 { return s.ProbeReads })},
		{"AnomalyEvents", "", "exported by kind as the scoreboard's labelled nesc_scoreboard_events_total series, which sum to it",
			func() float64 { return float64(tel.Board.Total()) }},

		{"Snapshots", "nesc_hyp_snapshots_total", "CoW snapshots taken", i64(&h.Snapshots)},
		{"Clones", "nesc_hyp_clones_total", "clones exported through new VFs", i64(&h.Clones)},
		{"CowFaults", "nesc_device_cow_faults_total", "writes trapped on write-protected (CoW shared) extents", i64(&ctl.CowFaults)},
		{"CowBreaks", "nesc_hyp_cow_breaks_total", "device CoW faults serviced end to end", i64(&h.CowBreaks)},
		{"BTLBInvalidations", "nesc_device_btlb_invalidations_total", "BTLB entries dropped by targeted invalidation", i64(&ctl.BTLBInvalidations)},
		{"SharedBlocks", "nesc_fs_shared_blocks", "data blocks currently CoW-shared (extra references > 0)", func() float64 {
			if d0.HostFS == nil {
				return 0
			}
			return float64(d0.HostFS.SharedBlocks())
		}},

		// Content-addressed tier: store counters are fleet-global, cache
		// counters aggregate the per-device chunk caches. Registered with the
		// tier off too — the getters are nil-safe and read zero — so
		// dashboards keep a stable family set.
		{"CASSeals", "nesc_cas_seals_total", "images content-addressed into the chunk store", store(func(s cas.Stats) int64 { return s.Seals })},
		{"CASForks", "nesc_cas_forks_total", "metadata-only image forks taken", store(func(s cas.Stats) int64 { return s.Forks })},
		{"CASReleases", "nesc_cas_releases_total", "manifests released from the store", store(func(s cas.Stats) int64 { return s.Releases })},
		{"CASDedupHits", "nesc_cas_dedup_hits_total", "sealed blocks deduplicated against existing chunks", store(func(s cas.Stats) int64 { return s.DedupHits })},
		{"CASChunksLive", "nesc_cas_chunks_live", "unique chunks currently referenced", store(func(s cas.Stats) int64 { return s.ChunksLive })},
		{"CASBlocksLogical", "nesc_cas_blocks_logical", "logical blocks across all live manifests", store(func(s cas.Stats) int64 { return s.BlocksLogical })},
		{"CASFetchMisses", "nesc_cas_fetch_misses_total", "translation misses raised for chunk materialization", i64(&h.FetchMisses)},
		{"CASMaterializations", "nesc_cas_materializations_total", "forked blocks materialized into backing files", i64(&pl.CAS.Materializations)},
		{"CASRemoteFetches", "nesc_cas_remote_fetches_total", "chunk GETs issued to the remote tier", store(func(s cas.Stats) int64 { return s.RemoteFetches })},
		{"CASRemotePuts", "nesc_cas_remote_puts_total", "batched PUT round trips to the remote tier", store(func(s cas.Stats) int64 { return s.RemotePuts })},
		{"CASRemoteRetries", "nesc_cas_remote_retries_total", "remote round trips retried after transient faults", store(func(s cas.Stats) int64 { return s.RemoteRetries })},
		{"CASRemoteFetchTime", "nesc_cas_remote_fetch_ns", "virtual time spent in remote chunk fetches", store(func(s cas.Stats) int64 { return int64(s.RemoteFetchTime) })},
		{"CASFetchFails", "nesc_cas_fetch_fails_total", "chunk fetches that exhausted the retry ladder", store(func(s cas.Stats) int64 { return s.FetchFails })},
		{"CASHashMismatches", "nesc_cas_hash_mismatches_total", "fetched payloads rejected by content verification", store(func(s cas.Stats) int64 { return s.HashMismatches })},
		{"CASCacheHits", "nesc_cas_cache_hits_total", "chunk-cache hits across the fleet", cache(func(c cas.CacheStats) int64 { return c.Hits })},
		{"CASCacheMisses", "nesc_cas_cache_misses_total", "chunk-cache misses across the fleet", cache(func(c cas.CacheStats) int64 { return c.Misses })},
		{"CASCacheEvictions", "nesc_cas_cache_evictions_total", "chunks evicted from the per-device caches", cache(func(c cas.CacheStats) int64 { return c.Evictions })},
		{"CASCacheResident", "nesc_cas_cache_resident", "chunks currently resident across the per-device caches", cache(func(c cas.CacheStats) int64 { return c.Resident })},

		// Registry only: signals with no Stats field.
		{"", "nesc_device_misses_total", "translation misses latched", i64(&ctl.Misses)},
		{"", "nesc_device_reqs_done_total", "requests retired", i64(&ctl.ReqsDone)},
		{"", "nesc_device_chunks_done_total", "chunks retired", i64(&ctl.ChunksDone)},
		{"", "nesc_device_dma_faults_total", "chunks failed by data-buffer DMA faults", fnc(func(c core.FnCounters) int64 { return c.DMAFaults })},
		{"", "nesc_device_flrs_total", "function-level resets performed", fnc(func(c core.FnCounters) int64 { return c.Resets })},
		{"", "nesc_device_aborted_chunks_total", "chunks killed by a reset", i64(&ctl.AbortedChunks)},
		{"", "nesc_device_miss_resends_total", "miss MSIs re-raised by the resend timer", i64(&ctl.MissResends)},
		{"", "nesc_device_queue_leases_total", "queue pairs leased from the device pool", i64(&ctl.QueueLeases)},
		{"", "nesc_device_queue_returns_total", "queue pairs returned to the device pool", i64(&ctl.QueueReturns)},
		{"", "nesc_device_queue_lease_fails_total", "ring programmings rejected by an exhausted pool", i64(&ctl.QueueLeaseFails)},
		{"", "nesc_device_shadow_batches_total", "fetch batches initiated via shadow doorbells", i64(&ctl.ShadowBatches)},
		{"", "nesc_device_flight_records_total", "flight-recorder captures", i64(&ctl.Flight().Total)},
		{"", "nesc_device_materialized_vfs", "VFs with device state built", func() float64 { return float64(ctl.MaterializedVFs()) }},
		{"", "nesc_device_leased_queues", "queue pairs currently leased out", func() float64 { return float64(ctl.LeasedQueues()) }},
		// Jain's index over per-VF block counts, restricted to VFs that moved
		// traffic (1 = perfectly fair, 1/n = maximally skewed).
		{"", "nesc_device_drr_fairness", "Jain fairness index over per-VF blocks served", ctl.JainFairness},
		{"", "nesc_hyp_injections_total", "guest interrupt injections", i64(&h.Injections)},
		{"", "nesc_scrub_errors_total", "scrub requests completed non-OK", i64(&h.ScrubErrors)},
		{"", "nesc_scrub_progress", "fraction of the current scrub pass completed", func() float64 {
			var total int64 // a pass covers the whole fleet
			for _, d := range h.Devices() {
				total += d.Ctl.Medium.Store().NumBlocks()
			}
			if total == 0 {
				return 0
			}
			return float64(h.ScrubBlocks%total) / float64(total)
		}},
		{"", "nesc_fs_cow_breaks_total", "filesystem-level share breaks (device faults and host writes)", func() float64 {
			if d0.HostFS == nil {
				return 0
			}
			return float64(d0.HostFS.CowBreaks)
		}},
		{"", "nesc_driver_doorbells_skipped_total", "MMIO doorbells elided by shadow batching", drv(func(s guest.QueueCounters) int64 { return s.DoorbellsSkipped })},
		{"", "nesc_fabric_msis_delayed_total", "interrupts delivered late", i64(&fab.DelayedMSIs)},
		{"", "nesc_fabric_mirrored_writes_total", "writes acknowledged by every live replica", fbr(func(s fabric.FleetStats) int64 { return s.MirroredWrites })},
		{"", "nesc_fabric_degraded_writes_total", "writes acknowledged by a strict subset of replicas", fbr(func(s fabric.FleetStats) int64 { return s.DegradedWrites })},
		{"", "nesc_fabric_write_failures_total", "writes no live replica acknowledged", fbr(func(s fabric.FleetStats) int64 { return s.WriteFailures })},
		{"", "nesc_fabric_read_fallbacks_total", "reads retried on a peer after an integrity error", fbr(func(s fabric.FleetStats) int64 { return s.ReadFallbacks })},
		{"", "nesc_fabric_read_retries_total", "reads retried on a peer after other errors", fbr(func(s fabric.FleetStats) int64 { return s.ReadRetries })},
		{"", "nesc_fabric_suspects_total", "healthy-to-suspect replica transitions", fbr(func(s fabric.FleetStats) int64 { return s.Suspects })},
		{"", "nesc_fabric_failovers_total", "replicas fenced by the health state machine", fbr(func(s fabric.FleetStats) int64 { return s.Failovers })},
		{"", "nesc_fabric_recoveries_total", "suspect replicas recovered by success streaks", fbr(func(s fabric.FleetStats) int64 { return s.Recoveries })},
		{"", "nesc_fabric_revives_total", "fenced replicas revived into rebuild", fbr(func(s fabric.FleetStats) int64 { return s.Revives })},
		{"", "nesc_fabric_resilver_regions_total", "dirty regions copied by the resilver", fbr(func(s fabric.FleetStats) int64 { return s.ResilverRegions })},
		{"", "nesc_fabric_resilver_blocks_total", "blocks copied by the resilver", fbr(func(s fabric.FleetStats) int64 { return s.ResilverBlocks })},
		{"", "nesc_fabric_resilver_restores_total", "rebuilding replicas promoted back to healthy", fbr(func(s fabric.FleetStats) int64 { return s.ResilverRestores })},
		{"", "nesc_fabric_last_failover_ns", "first error to fence latency of the most recent failover", fbr(func(s fabric.FleetStats) int64 { return int64(s.LastFailoverLatency) })},
	}
	if inj != nil {
		// Injector totals exist only under a fault plan; without one the
		// Stats fields stay zero and the families are not exported.
		rows = append(rows,
			Counter{"InjectedFaults", "nesc_fault_injected_total", "faults injected across all sites", func() float64 { return float64(inj.TotalFaults()) }},
			Counter{"LatentHits", "nesc_fault_latent_hits_total", "reads that landed on an armed latent sector", i64(&inj.LatentHits)},
			Counter{"LatentRepaired", "nesc_fault_latent_repaired_total", "latent sectors cleared by rewrites or repair", i64(&inj.LatentCleared)},
			Counter{"CorruptionsInjected", "nesc_fault_corruptions_total", "silent corruptions injected", func() float64 { return float64(inj.CorruptionsInjected()) }},
			Counter{"LatentOutstanding", "nesc_fault_latent_outstanding", "latent sector faults currently armed", func() float64 { return float64(inj.LatentCount()) }},
			Counter{"CorruptOutstanding", "nesc_fault_corrupt_outstanding", "silent corruptions not yet detected or repaired", func() float64 { return float64(inj.CorruptCount()) }},
			Counter{"DegradedOps", "nesc_fault_degraded_ops_total", "medium ops stretched by a fail-slow degradation", i64(&inj.DegradedOps)},
			Counter{"DegradedTime", "nesc_fault_degraded_ns_total", "total extra nanoseconds injected by degradations", func() float64 { return float64(inj.DegradedTime) }},
			Counter{"", "nesc_fault_delays_total", "injected delay decisions across all sites", func() float64 { return float64(inj.TotalDelays()) }},
		)
	}
	if eng := tel.SLO; eng != nil {
		// The unlabelled series is the fleet total; the engine adds one
		// {vf} series per tenant to the same family as trackers materialize.
		rows = append(rows, Counter{"SLOAlerts", "nesc_slo_alerts_total", "burn-rate alerts fired across all tenants",
			func() float64 { return float64(eng.TotalAlerts()) }})
	}
	pl.counters = rows
	return rows
}
