package cas

import "nesc/internal/sim"

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

// Get returns the cached chunk and promotes it to most recently used.
func (c *Cache) Get(h Hash) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	e, ok := c.entries[h]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
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

// Fetch returns chunk h, calling fetch and caching its payload on a miss. A
// chunk another miss is fetching counts as held: the call waits for that
// fetch and looks again, so it fetches for itself only if that one failed.
func (c *Cache) Fetch(p *sim.Proc, h Hash, fetch func() ([]byte, error)) ([]byte, error) {
	for c != nil && c.fetching[h] != nil {
		c.fetching[h].Await(p)
	}
	if data, ok := c.Get(h); ok {
		return data, nil
	}
	if c != nil {
		done := sim.NewSignal(p.Engine())
		c.fetching[h] = done
		defer func() { delete(c.fetching, h); done.Fire() }()
	}
	data, err := fetch()
	if err == nil {
		c.Put(h, data)
	}
	return data, err
}
