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

// Fetch GETs the chunks hs names from the remote tier in one round trip: one
// latency, their bytes and the longest injected delay. The transient-fault
// retry ladder and content verification run per chunk: a chunk whose attempt
// faulted, or whose payload does not match its address (never served), rides
// the next round trip with the others left — a clean replica may answer — and
// one still failing when the ladder is spent fails the fetch, as ErrIntegrity
// when the corruption is persistent. The payloads come back in hs's order.
func (s *Store) Fetch(p *sim.Proc, hs []Hash) ([][]byte, error) {
	if s == nil {
		return nil, ErrDisabled
	}
	cs := make([]*chunk, len(hs))
	for i, h := range hs {
		if cs[i] = s.chunks[h]; cs[i] == nil {
			return nil, fmt.Errorf("cas: fetch of unknown chunk %x", h[:4])
		}
	}
	out, faulted := make([][]byte, len(hs)), make([]bool, len(hs))
	var lastErr error
	for attempt, left := 0, len(hs); left > 0; attempt++ {
		if attempt > fetchRetryMax {
			s.stats.FetchFails += int64(left)
			return nil, lastErr
		}
		if attempt > 0 {
			s.stats.RemoteRetries++
		}
		var bytes int64
		var delay sim.Time
		for i, c := range cs {
			if out[i] == nil {
				d := s.Inj.Decide(fault.RemoteFetch)
				bytes, delay, faulted[i] = bytes+int64(len(c.data)), max(delay, d.Delay), d.Fault
			}
		}
		cost := s.P.RemoteLatency + s.xferTime(bytes) + delay
		s.stats.RemoteFetches++
		sleep(p, cost)
		s.stats.RemoteFetchTime += cost
		for i, c := range cs {
			switch {
			case out[i] != nil:
			case faulted[i]:
				lastErr = fmt.Errorf("cas: remote fetch fault on chunk %x", hs[i][:4])
			case HashOf(c.data) != hs[i]:
				s.stats.HashMismatches++
				lastErr = ErrIntegrity
			default:
				out[i] = c.data
				left--
			}
		}
	}
	return out, nil
}
