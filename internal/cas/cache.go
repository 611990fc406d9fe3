package cas

import (
	"slices"

	"nesc/internal/sim"
)

// Per-device LRU chunk cache: the local tier between a device's miss path
// and the remote object store. Recently materialized chunks are served from
// here without a remote round trip — the golden-image case, where every
// host forking the same image touches the same chunks. A nil *Cache is a
// valid disabled cache: Get always misses, Put drops.

// centry is one resident chunk on the cache's doubly linked LRU list
// (front = most recent).
type centry struct {
	hash       Hash
	data       []byte
	prev, next *centry
}

// CacheStats is the cache's counter snapshot.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Resident                int64
}

// Cache is one device's local chunk cache. Single-threaded, like everything
// behind the engine hand-off.
type Cache struct {
	capacity    int
	entries     map[Hash]*centry
	front, back *centry
	fetching    map[Hash]*sim.Signal // chunks a miss is fetching: see Fetch

	hits, misses, evictions int64
}

// NewCache builds a cache holding up to capacity chunks (min 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{capacity: capacity, entries: make(map[Hash]*centry), fetching: make(map[Hash]*sim.Signal)}
}

// Stats snapshots the counters (zero value on nil).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Resident: int64(len(c.entries))}
}

// unlink removes e from the LRU list.
func (c *Cache) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *Cache) pushFront(e *centry) {
	e.next = c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
}

// Get returns the cached chunk and promotes it to most recently used. It
// counts nothing: Fetch counts its hits and misses.
func (c *Cache) Get(h Hash) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	e, ok := c.entries[h]
	if !ok {
		return nil, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.data, true
}

// Put inserts a chunk at the front, evicting from the LRU tail until the
// cache fits. A payload stays valid after its entry is evicted: the cache
// never writes into one.
func (c *Cache) Put(h Hash, data []byte) {
	if c == nil {
		return
	}
	if e, ok := c.entries[h]; ok {
		c.unlink(e)
		c.pushFront(e)
		return
	}
	e := &centry{hash: h, data: append([]byte(nil), data...)}
	c.entries[h] = e
	c.pushFront(e)
	for len(c.entries) > c.capacity {
		victim := c.back
		c.unlink(victim)
		delete(c.entries, victim.hash)
		c.evictions++
	}
}

// Fetch returns the chunks hs names, in order. It claims those neither
// resident nor in another miss's fetch, fetches them with one call of fetch
// (one round trip) and caches them; it waits for a chunk another miss is
// fetching and looks again, claiming it only if that fetch failed. Each chunk
// claimed counts one miss; every other entry of hs, one hit.
func (c *Cache) Fetch(p *sim.Proc, hs []Hash, fetch func([]Hash) ([][]byte, error)) ([][]byte, error) {
	if c == nil {
		return fetch(hs)
	}
	out, hits := make([][]byte, len(hs)), len(hs)
	for {
		var claim []Hash
		var busy *sim.Signal
		for i, h := range hs {
			if out[i] != nil {
				continue
			}
			if data, ok := c.Get(h); ok {
				out[i] = data
			} else if c.fetching[h] != nil {
				busy = c.fetching[h]
			} else if !slices.Contains(claim, h) {
				claim = append(claim, h)
			}
		}
		if len(claim) == 0 && busy == nil {
			c.hits += int64(hits)
			return out, nil
		}
		if len(claim) == 0 {
			busy.Await(p)
			continue
		}
		hits -= len(claim)
		c.misses += int64(len(claim))
		done := sim.NewSignal(p.Engine())
		for _, h := range claim {
			c.fetching[h] = done
		}
		data, err := fetch(claim)
		for j, h := range claim {
			delete(c.fetching, h)
			if err == nil {
				c.Put(h, data[j])
				for i := range hs {
					if hs[i] == h {
						out[i] = data[j]
					}
				}
			}
		}
		done.Fire()
		if err != nil {
			return nil, err
		}
	}
}
