// Package twogen is the bounded-cache policy behind every warm table:
// two generations. Inserts land in the current generation; once it holds
// half the cap it becomes the old generation (dropping the previous old
// one) and a fresh current generation starts; a hit in the old generation
// moves the entry back into the current one. Entries referenced at least
// once per rotation period therefore survive indefinitely, each key is
// resident in at most one generation, and the population never exceeds
// the cap.
//
// Map is the unsynchronized policy. Table adds a lock and hit, miss and
// eviction counters. Sharded spreads uint64 keys over 64 Tables so
// concurrent callers rarely contend.
package twogen

import (
	"sync"
	"sync/atomic"
)

// Map is an unsynchronized two-generation map bounded to cap entries.
type Map[K comparable, V any] struct {
	cap      int
	cur, old map[K]V
	evicted  uint64 // entries dropped by rotation
}

// NewMap returns an empty Map holding at most cap entries (at least 2).
func NewMap[K comparable, V any](cap int) *Map[K, V] {
	return &Map[K, V]{cap: max(cap, 2)}
}

// Get returns the value stored under k, promoting an old-generation hit.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if v, ok := m.cur[k]; ok {
		return v, true
	}
	v, ok := m.old[k]
	if ok {
		m.Put(k, v)
	}
	return v, ok
}

// Put stores v under k in the current generation, rotating first when the
// current generation is full and does not hold k.
func (m *Map[K, V]) Put(k K, v V) {
	delete(m.old, k)
	if _, ok := m.cur[k]; !ok && len(m.cur) >= m.cap/2 {
		m.evicted += uint64(len(m.old))
		m.old = m.cur
		m.cur = make(map[K]V, m.cap/2)
	}
	if m.cur == nil {
		m.cur = make(map[K]V)
	}
	m.cur[k] = v
}

// Len returns the population of both generations.
func (m *Map[K, V]) Len() int { return len(m.cur) + len(m.old) }

// Reset drops every entry.
func (m *Map[K, V]) Reset() { m.cur, m.old = nil, nil }

// Stats is a snapshot of a Table's or a Sharded's counters and population.
type Stats struct {
	Hits, Misses uint64
	Evicted      uint64 // entries dropped by rotation
	Len          int
}

// Table is a Map safe for concurrent use that counts its hits and misses.
type Table[K comparable, V any] struct {
	mu           sync.RWMutex
	m            Map[K, V]
	hits, misses atomic.Uint64
}

// NewTable returns an empty Table holding at most cap entries (at least 2).
func NewTable[K comparable, V any](cap int) *Table[K, V] {
	return &Table[K, V]{m: Map[K, V]{cap: max(cap, 2)}}
}

// Get returns the value stored under k, counting a hit or a miss. An
// old-generation hit is promoted.
func (t *Table[K, V]) Get(k K) (V, bool) {
	t.mu.RLock()
	v, ok := t.m.cur[k]
	if ok {
		t.mu.RUnlock()
		t.hits.Add(1)
		return v, true
	}
	v, ok = t.m.old[k]
	t.mu.RUnlock()
	if !ok {
		t.misses.Add(1)
		return v, false
	}
	t.hits.Add(1)
	t.mu.Lock()
	t.m.Get(k) // promotes, unless a concurrent caller already did
	t.mu.Unlock()
	return v, true
}

// Put stores v under k.
func (t *Table[K, V]) Put(k K, v V) {
	t.mu.Lock()
	t.m.Put(k, v)
	t.mu.Unlock()
}

// GetOrPut returns the value already stored under k and true, or stores v
// and returns it and false: the first insert of a key wins, so concurrent
// callers agree on one value. It counts neither a hit nor a miss; callers
// probe with Get first.
func (t *Table[K, V]) GetOrPut(k K, v V) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.m.Get(k); ok {
		return cur, true
	}
	t.m.Put(k, v)
	return v, false
}

// Reset drops every entry; the counters keep counting.
func (t *Table[K, V]) Reset() {
	t.mu.Lock()
	t.m.Reset()
	t.mu.Unlock()
}

// Renew returns an empty Table with t's cap whose counters continue from
// t's. Swapping it in for t hides t's entries from new callers while
// callers still holding t keep using it undisturbed.
func (t *Table[K, V]) Renew() *Table[K, V] {
	n := &Table[K, V]{}
	t.renewInto(n)
	return n
}

func (t *Table[K, V]) renewInto(n *Table[K, V]) {
	t.mu.RLock()
	n.m = Map[K, V]{cap: t.m.cap, evicted: t.m.evicted}
	t.mu.RUnlock()
	n.hits.Store(t.hits.Load())
	n.misses.Store(t.misses.Load())
}

// Stats snapshots the counters and the population.
func (t *Table[K, V]) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Stats{Hits: t.hits.Load(), Misses: t.misses.Load(), Evicted: t.m.evicted, Len: t.m.Len()}
}

// shardCount is the number of independently locked Tables in a Sharded.
const shardCount = 64

// Sharded is a Table over uint64 keys split into 64 independently locked
// shards, each bounded to 1/64 of the cap and counting its own hits and
// misses.
type Sharded[V any] struct {
	shards [shardCount]Table[uint64, V]
}

// NewSharded returns an empty Sharded holding at most cap entries (at
// least 2 per shard).
func NewSharded[V any](cap int) *Sharded[V] {
	s := &Sharded[V]{}
	for i := range s.shards {
		s.shards[i].m.cap = max(cap/shardCount, 2)
	}
	return s
}

func (s *Sharded[V]) shard(k uint64) *Table[uint64, V] {
	return &s.shards[(k^(k>>32))%shardCount]
}

// Get returns the value stored under k, counting a hit or a miss.
func (s *Sharded[V]) Get(k uint64) (V, bool) { return s.shard(k).Get(k) }

// Put stores v under k.
func (s *Sharded[V]) Put(k uint64, v V) { s.shard(k).Put(k, v) }

// Renew is Table.Renew over every shard.
func (s *Sharded[V]) Renew() *Sharded[V] {
	n := &Sharded[V]{}
	for i := range s.shards {
		s.shards[i].renewInto(&n.shards[i])
	}
	return n
}

// Stats sums the shards' counters and populations.
func (s *Sharded[V]) Stats() Stats {
	var st Stats
	for i := range s.shards {
		sh := s.shards[i].Stats()
		st.Hits += sh.Hits
		st.Misses += sh.Misses
		st.Evicted += sh.Evicted
		st.Len += sh.Len
	}
	return st
}
