package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"qilabel"
	"qilabel/internal/cluster"
)

// disjointSources builds a small annotated corpus whose labels are unique
// to request i, so nothing the server might retain per request is ever
// shared with another request.
func disjointSources(i int) []*qilabel.Tree {
	q := fmt.Sprintf("Q%d", i)
	return []*qilabel.Tree{
		qilabel.NewTree("a",
			qilabel.NewField("Fare "+q, "c_fare"),
			qilabel.NewField("Origin "+q, "c_from"),
			qilabel.NewField("Target "+q, "c_to"),
		),
		qilabel.NewTree("b",
			qilabel.NewField("Price "+q, "c_fare"),
			qilabel.NewField("Start "+q, "c_from"),
			qilabel.NewField("Finish "+q, "c_to"),
		),
	}
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServerMemoryBounded is the long-running-service audit for the
// semantic-kernel caches: every request carries labels no other request
// uses, so any per-request state the server retained — analysis tables,
// Relate memos, Semantics caches, uncapped result entries — would grow the
// live heap linearly with the request count. The test pins that after a
// warm-up, hundreds of disjoint integrations leave the GC'd heap flat (the
// analysis tables die with their request) and the result cache at its
// configured capacity.
func TestServerMemoryBounded(t *testing.T) {
	const capEntries = 4
	s, ts := newTestServer(t, Config{CacheSize: capEntries})

	run := func(from, to int) {
		for i := from; i < to; i++ {
			resp := postJSON(t, ts.URL+"/v1/integrate",
				integrateRequest{Sources: disjointSources(i)})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
		}
	}

	run(0, 20) // warm up allocator, http machinery, lexicon tables
	base := heapAlloc()
	const n = 200
	run(20, 20+n)
	grown := heapAlloc()

	if s.cache.Len() > capEntries {
		t.Fatalf("result cache holds %d entries, capacity %d", s.cache.Len(), capEntries)
	}
	// A retained analysis table or Semantics for each of the n disjoint
	// requests would add tens of KiB per request; a flat service stays far
	// below this ceiling (observed growth is well under 1 MiB).
	const limit = 8 << 20
	if grown > base+limit {
		t.Fatalf("GC'd heap grew %d bytes over %d disjoint requests (limit %d): per-request state is being retained",
			grown-base, n, limit)
	}
}

// TestServerReleasesEvictedResults is the retention audit
// TestServerMemoryBounded cannot make: its flat two-field trees form no
// groups, so nothing of theirs reaches the naming solve cache. Here every
// request is a distinct nested corpus that forms groups. Once the result
// cache has evicted a request's entry, nothing the server keeps — the
// result LRU, the Integrators' warm caches or anything else — may still
// reference that run: a finalizer on one cluster of each evicted result
// (each is allocated on its own by cluster.FromTrees) must fire after a
// collection.
func TestServerReleasesEvictedResults(t *testing.T) {
	const capEntries, n = 4, 32
	s, ts := newTestServer(t, Config{CacheSize: capEntries})
	freed := make(chan struct{}, n)
	// The last capEntries requests are not tracked: they only push every
	// tracked entry out of the result cache.
	for i, sources := range synthSets(t, 1507, n+capEntries) {
		resp := postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: sources})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("corpus %d: status %d", i, resp.StatusCode)
		}
		var out integrateResponse
		decodeBody(t, resp, &out)
		if out.Cached {
			t.Fatalf("corpus %d: answered from the result cache; the corpora must be distinct", i)
		}
		if i >= n {
			continue
		}
		e, ok := s.cache.Get(out.Key)
		if !ok || e.res == nil || len(e.res.Mapping.Clusters) == 0 {
			t.Fatalf("corpus %d: no cached result with clusters under %s", i, out.Key)
		}
		runtime.SetFinalizer(e.res.Mapping.Clusters[0], func(*cluster.Cluster) { freed <- struct{}{} })
	}
	if got := s.cache.Len(); got != capEntries {
		t.Fatalf("result cache holds %d entries, want %d", got, capEntries)
	}

	deadline := time.After(20 * time.Second)
	for got := 0; got < n; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(100 * time.Millisecond):
			// Collect again: a sync.Pool drops its victims a cycle late.
		case <-deadline:
			t.Fatalf("%d of %d evicted results are still reachable from the server", n-got, n)
		}
	}
}
