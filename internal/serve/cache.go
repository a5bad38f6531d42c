package serve

import (
	"bytes"
	"sync"

	"chebymc/internal/obs"
)

// entry is one cached assignment result: the canonical digest rendered
// for the response envelope plus the marshaled assignment JSON. Entries
// are immutable after creation and shared freely between the two cache
// levels and concurrent readers — a hit never copies.
type entry struct {
	digestHex string
	body      []byte
}

// cacheShards must be a power of two. Both locator hashes (FNV-1a and
// maphash) mix well into the low bits, so the shard index is just a
// mask. 16 shards keeps lock contention negligible at 100k+ lookups/s
// while costing four pointers of fixed overhead per cache.
const cacheShards = 16

// cache is a sharded, size-bounded LRU from key byte strings to entries,
// addressed by a 64-bit hash of the key that the caller supplies. The
// hash only locates the shard and map slot; a hit also compares the
// stored key bytes, so a hash collision reads as a miss rather than
// another key's value (see digest.go). Each shard serialises on its own
// mutex; a Get bumps recency inside the shard lock (a pointer splice, no
// allocation). The capacity is split evenly across shards, so the bound
// is exact per shard and ±shards in aggregate — the usual sharded-LRU
// tradeoff, irrelevant at the tens of thousands of entries the daemon
// runs with.
type cache struct {
	shards [cacheShards]lruShard

	hits, misses, evictions *obs.Counter
	entries                 *obs.Gauge
}

type lruShard struct {
	mu      sync.Mutex
	items   map[uint64]*lruNode
	head    *lruNode // most recently used
	tail    *lruNode // next to evict
	cap     int
	entries int
}

type lruNode struct {
	hash       uint64
	key        []byte
	val        *entry
	prev, next *lruNode
}

// newCache builds a cache holding at most capacity entries, registering
// its counters under the given metric prefix (e.g. "serve_cache").
// capacity < cacheShards is rounded up so every shard holds at least one
// entry.
func newCache(capacity int, prefix string) *cache {
	perShard := (capacity + cacheShards - 1) / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &cache{
		hits:      obs.Default.Counter(prefix+"_hits_total", "lookups served from the cache"),
		misses:    obs.Default.Counter(prefix+"_misses_total", "lookups that fell through to compute"),
		evictions: obs.Default.Counter(prefix+"_evictions_total", "entries evicted to respect the size bound"),
		entries:   obs.Default.Gauge(prefix+"_entries", "entries currently resident"),
	}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[uint64]*lruNode, perShard)
	}
	return c
}

// get returns the cached entry for key (hash is its locator hash) and
// bumps its recency. A node whose stored key differs — a 64-bit hash
// collision — is a miss.
func (c *cache) get(hash uint64, key []byte) (*entry, bool) {
	s := &c.shards[hash&(cacheShards-1)]
	var val *entry
	s.mu.Lock()
	// n.val is written by put's refresh branch under this same lock, so
	// the read must happen before Unlock.
	if n, ok := s.items[hash]; ok && bytes.Equal(n.key, key) {
		s.moveToFront(n)
		val = n.val
	}
	s.mu.Unlock()
	if val != nil {
		c.hits.Inc()
		return val, true
	}
	c.misses.Inc()
	return nil, false
}

// put inserts (or refreshes) key → val, evicting the shard's least
// recently used entry when full. The key bytes are copied, so callers
// may pass slices that alias pooled scratch.
func (c *cache) put(hash uint64, key []byte, val *entry) {
	s := &c.shards[hash&(cacheShards-1)]
	var evicted bool
	s.mu.Lock()
	if n, ok := s.items[hash]; ok {
		if !bytes.Equal(n.key, key) {
			// Hash collision: the map slot holds one key, so last writer
			// wins and the displaced key becomes a recurring miss — a
			// performance degradation, never a wrong answer.
			n.key = append([]byte(nil), key...)
		}
		n.val = val
		s.moveToFront(n)
		s.mu.Unlock()
		return
	}
	if s.entries >= s.cap {
		// Evict the tail. cap ≥ 1 and the key is absent, so tail != nil.
		t := s.tail
		s.unlink(t)
		delete(s.items, t.hash)
		s.entries--
		evicted = true
	}
	n := &lruNode{hash: hash, key: append([]byte(nil), key...), val: val}
	s.items[hash] = n
	s.pushFront(n)
	s.entries++
	s.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	} else {
		c.entries.Add(1)
	}
}

// len reports the resident entry count (for tests).
func (c *cache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.entries
		s.mu.Unlock()
	}
	return total
}

func (s *lruShard) pushFront(n *lruNode) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *lruShard) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *lruShard) moveToFront(n *lruNode) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

// flightGroup deduplicates concurrent computes of the same canonical key
// (cache-stampede protection): the first caller becomes the leader and
// runs fn, the rest block until the leader finishes and share its
// result. The map is keyed by the full key bytes — not their hash — so a
// hash collision can never make a request wait on (and serve) a
// different query's compute. Correctness does not otherwise depend on
// the dedup — the compute is a pure function of the key, so duplicate
// computes would return identical bytes — but one GA run instead of N is
// the difference between a thundering herd absorbing the queue and not
// noticing it.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  *entry
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn under key, or waits for the in-flight run. shared reports
// whether the result came from another caller's run.
func (g *flightGroup) do(key []byte, fn func() (*entry, error)) (val *entry, shared bool, err error) {
	k := string(key) // one cold-path allocation; the map must own its key
	g.mu.Lock()
	if c, ok := g.calls[k]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[k] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.calls, k)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
