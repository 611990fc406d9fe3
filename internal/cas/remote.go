package cas

import (
	"fmt"

	"nesc/internal/fault"
	"nesc/internal/sim"
)

// Remote-tier traffic: every byte that crosses to or from the simulated
// object store pays the tier's latency/bandwidth cost model and passes the
// fault.RemoteFetch / fault.RemoteStore injection sites, so the chaos and
// gray-failure machinery (delays, transient errors) applies to the
// content-addressed tier exactly as it does to the local medium.

// xferTime is the payload cost of moving n bytes across the tier.
func (s *Store) xferTime(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / s.P.RemoteBandwidth)
}

// sleep advances virtual time when a proc is present; timeless callers
// (setup paths mirroring PFDisk's nil-ctx Store bypass) pay nothing.
func sleep(p *sim.Proc, d sim.Time) {
	if p != nil && d > 0 {
		p.Sleep(d)
	}
}

// remotePut models one batched PUT: a single round trip carrying newChunks
// payload chunks (seal) or pure metadata (fork, release). Transient
// remote-store faults retry the whole round trip — the tier's PUTs are
// idempotent, content-addressed writes.
func (s *Store) remotePut(p *sim.Proc, newChunks int, newBytes int64) {
	cost := s.P.RemoteLatency + s.xferTime(newBytes) + sim.Time(newChunks)*s.P.PutOverhead
	for attempt := 0; ; attempt++ {
		d := s.Inj.Decide(fault.RemoteStore)
		s.stats.RemotePuts++
		sleep(p, cost+d.Delay)
		if !d.Fault {
			return
		}
		s.stats.RemoteRetries++
		if attempt >= fetchRetryMax {
			// PUTs never fail permanently in this model: the store keeps
			// retrying on the caller's virtual time, like the DTU's bounded
			// ladder backed by an idempotent operation. Bound the accounting
			// loop anyway so a 100%-fault plan terminates.
			return
		}
	}
}

// Fetch GETs one chunk from the remote tier: cost model, transient-fault
// retry ladder, and content verification. A payload whose hash does not
// match its address is never served — it is retried (a clean replica may
// answer) and, when the corruption is persistent, surfaced as ErrIntegrity.
func (s *Store) Fetch(p *sim.Proc, h Hash) ([]byte, error) {
	if s == nil {
		return nil, ErrDisabled
	}
	c, ok := s.chunks[h]
	if !ok {
		return nil, fmt.Errorf("cas: fetch of unknown chunk %x", h[:4])
	}
	cost := s.P.RemoteLatency + s.xferTime(int64(len(c.data)))
	var lastErr error
	for attempt := 0; attempt <= fetchRetryMax; attempt++ {
		if attempt > 0 {
			s.stats.RemoteRetries++
		}
		d := s.Inj.Decide(fault.RemoteFetch)
		s.stats.RemoteFetches++
		sleep(p, cost+d.Delay)
		s.stats.RemoteFetchTime += cost + d.Delay
		if d.Fault {
			lastErr = fmt.Errorf("cas: remote fetch fault on chunk %x", h[:4])
			continue
		}
		if HashOf(c.data) != h {
			s.stats.HashMismatches++
			lastErr = ErrIntegrity
			continue
		}
		return c.data, nil
	}
	s.stats.FetchFails++
	return nil, lastErr
}
