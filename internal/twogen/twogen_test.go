package twogen

import (
	"strconv"
	"sync"
	"testing"
)

// TestMapCapBound: a stream of distinct keys rotates the generations but
// never pushes the population past the cap, counts every dropped entry as
// evicted, and keeps the newest key resident.
func TestMapCapBound(t *testing.T) {
	m := NewMap[int, int](8)
	for i := 0; i < 100; i++ {
		m.Put(i, i)
		if m.Len() > 8 {
			t.Fatalf("after %d puts the map holds %d entries, cap is 8", i+1, m.Len())
		}
	}
	if v, ok := m.Get(99); !ok || v != 99 {
		t.Fatalf("Get(99) = %d, %v", v, ok)
	}
	if got := m.evicted + uint64(m.Len()); got != 100 {
		t.Fatalf("evicted %d + resident %d != 100 distinct puts", m.evicted, m.Len())
	}
}

// TestPromotionSurvivesRotation: an old-generation hit moves the entry
// into the current generation, so it outlives the next rotation while its
// unreferenced contemporaries are dropped. The promotion leaves the key in
// one generation only: the population equals the distinct resident keys.
func TestPromotionSurvivesRotation(t *testing.T) {
	tab := NewTable[string, int](8)
	for i := 0; i < 4; i++ { // fill cur to cap/2: the next put rotates
		tab.Put("old"+strconv.Itoa(i), i)
	}
	tab.Put("rotor", -1) // old0..old3 -> old generation
	if _, ok := tab.Get("old1"); !ok {
		t.Fatal("old-generation entry unreachable after rotation")
	}
	if st := tab.Stats(); st.Len != 5 {
		t.Fatalf("5 distinct resident keys, population %d", st.Len)
	}
	for i := 0; i < 3; i++ { // cur = rotor, old1 + 2 more: the 3rd rotates
		tab.Put("new"+strconv.Itoa(i), i)
	}
	if _, ok := tab.Get("old1"); !ok {
		t.Fatal("promoted entry evicted by the next rotation")
	}
	if _, ok := tab.Get("old2"); ok {
		t.Fatal("unreferenced old-generation entry survived two rotations")
	}
	st := tab.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evicted != 3 {
		t.Fatalf("stats %+v, want 2 hits, 1 miss, 3 evicted", st)
	}
}

// TestGetOrPutFirstInsertWins: the first value stored under a key is the
// one every later GetOrPut returns, from either generation.
func TestGetOrPutFirstInsertWins(t *testing.T) {
	tab := NewTable[string, int](4)
	if v, found := tab.GetOrPut("k", 1); found || v != 1 {
		t.Fatalf("first GetOrPut = %d, %v; want 1, false", v, found)
	}
	if v, found := tab.GetOrPut("k", 2); !found || v != 1 {
		t.Fatalf("second GetOrPut = %d, %v; want 1, true", v, found)
	}
	tab.Put("x", 0)
	tab.Put("y", 0) // rotates: k and x move to the old generation
	if v, found := tab.GetOrPut("k", 3); !found || v != 1 {
		t.Fatalf("GetOrPut of an old-generation key = %d, %v; want 1, true", v, found)
	}
	if st := tab.Stats(); st.Hits != 0 || st.Misses != 0 || st.Len != 3 {
		t.Fatalf("GetOrPut moved the counters or duplicated a key: %+v", st)
	}
}

// TestRenewKeepsCounters: a reset table and a renewed one start empty with
// the counters carried over; renewing leaves the original intact.
func TestRenewKeepsCounters(t *testing.T) {
	tab := NewTable[string, int](4)
	tab.Put("k", 1)
	tab.Get("k")
	tab.Reset()
	if _, ok := tab.Get("k"); ok {
		t.Fatal("entry survived Reset")
	}
	if st := tab.Renew().Stats(); st.Hits != 1 || st.Misses != 1 || st.Len != 0 {
		t.Fatalf("reset+renewed table stats %+v", st)
	}

	s := NewSharded[int](128)
	s.Put(1, 1)
	s.Get(1)
	s.Get(2)
	n := s.Renew()
	if st := n.Stats(); st.Hits != 1 || st.Misses != 1 || st.Len != 0 {
		t.Fatalf("renewed stats %+v", st)
	}
	if v, ok := s.Get(1); !ok || v != 1 {
		t.Fatal("renew disturbed the original table")
	}
	if _, ok := n.Get(1); ok {
		t.Fatal("renewed table sees the original's entries")
	}
}

// TestConcurrentBound hammers one Table and one Sharded from several
// goroutines (run it under -race): the populations stay within the caps
// and every value read is the one its key was stored with.
func TestConcurrentBound(t *testing.T) {
	const capacity = 256
	tab := NewTable[int, int](capacity)
	sh := NewSharded[int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				k := (i*7 + g*131) % 1000
				if v, ok := tab.Get(k); ok && v != k {
					t.Errorf("Table.Get(%d) = %d", k, v)
				} else if !ok {
					tab.GetOrPut(k, k)
				}
				if v, ok := sh.Get(uint64(k)); ok && v != k {
					t.Errorf("Sharded.Get(%d) = %d", k, v)
				} else if !ok {
					sh.Put(uint64(k), k)
				}
				if i%500 == 0 {
					if n := tab.Stats().Len; n > capacity {
						t.Errorf("table holds %d, cap is %d", n, capacity)
					}
					if n := sh.Stats().Len; n > capacity {
						t.Errorf("sharded holds %d, cap is %d", n, capacity)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := tab.Stats()
	if st.Len > capacity || st.Hits+st.Misses != 8*4000 {
		t.Fatalf("table stats %+v", st)
	}
	if st := sh.Stats(); st.Len > capacity || st.Hits+st.Misses != 8*4000 {
		t.Fatalf("sharded stats %+v", st)
	}
}
