package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qilabel"
)

// fixtureSources mirrors the paper's Figure 2 airline example: three
// sources with annotated clusters, one of them a 1:m aggregate.
func fixtureSources() []*qilabel.Tree {
	return []*qilabel.Tree{
		qilabel.NewTree("aa",
			qilabel.NewGroup("Passengers",
				qilabel.NewField("Adults", "c_Adult"),
				qilabel.NewField("Children", "c_Child"),
			),
			qilabel.NewField("From", "c_From"),
			qilabel.NewField("To", "c_To"),
		),
		qilabel.NewTree("british",
			qilabel.NewGroup("How many people are going?",
				qilabel.NewField("Seniors", "c_Senior"),
				qilabel.NewField("Adults", "c_Adult"),
				qilabel.NewField("Children", "c_Child"),
			),
			qilabel.NewField("Departure City", "c_From"),
			qilabel.NewField("Destination City", "c_To"),
		),
		qilabel.NewTree("vacations",
			qilabel.NewMultiField("Passengers", "c_Senior", "c_Adult", "c_Child"),
			qilabel.NewField("Leaving From", "c_From"),
			qilabel.NewField("Going To", "c_To"),
		),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func TestIntegrateHappyPathAndWarmCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := integrateRequest{Sources: fixtureSources()}

	resp := postJSON(t, ts.URL+"/v1/integrate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var cold integrateResponse
	decodeBody(t, resp, &cold)
	if cold.Key == "" || cold.Cached || cold.Tree == nil {
		t.Fatalf("bad cold response: key=%q cached=%v tree=%v", cold.Key, cold.Cached, cold.Tree)
	}
	if cold.Labels["c_Adult"] == "" {
		t.Fatalf("no label for c_Adult: %v", cold.Labels)
	}
	if cold.Class == "" {
		t.Fatal("no classification")
	}

	// Same pool, different listing order: must be a pure cache hit.
	shuffled := fixtureSources()
	shuffled[0], shuffled[2] = shuffled[2], shuffled[0]
	var warm integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: shuffled}), &warm)
	if !warm.Cached {
		t.Fatal("reordered identical pool was not served from the cache")
	}
	if warm.Key != cold.Key {
		t.Fatalf("key changed with source order: %q vs %q", warm.Key, cold.Key)
	}
	if hits := s.metrics.cacheHits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

func TestIntegrateBuiltinDomain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Domain: "Airline"}), &out)
	if out.Key == "" || out.Tree == nil || out.Report.IntLeaves == 0 {
		t.Fatalf("bad domain response: %+v", out.Report)
	}
}

func TestIntegrateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"malformed json", `{"sources": [`, "malformed request body"},
		{"empty", `{}`, "no source interfaces"},
		{"both", `{"domain":"Airline","sources":[{"interface":"a","root":{}}]}`, "not both"},
		{"unknown domain", `{"domain":"Groceries"}`, "unknown domain"},
		{"invalid tree", `{"sources":[{"root":{"children":[{"label":"x"}]}}]}`, "interface name"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/integrate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: body %q is not an error envelope: %v", tc.name, body, err)
			continue
		}
		if env.Error.Code != codeBadRequest {
			t.Errorf("%s: error code = %q, want %q", tc.name, env.Error.Code, codeBadRequest)
		}
		if !strings.Contains(env.Error.Message, tc.want) {
			t.Errorf("%s: message %q does not mention %q", tc.name, env.Error.Message, tc.want)
		}
	}
}

// TestErrorEnvelopeCodes pins the machine-readable code of each
// non-400 error path.
func TestErrorEnvelopeCodes(t *testing.T) {
	t.Run("too_large", func(t *testing.T) {
		_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
		resp := postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: fixtureSources()})
		var env errorEnvelope
		decodeBody(t, resp, &env)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != codeTooLarge {
			t.Fatalf("status=%d code=%q, want 413/%q", resp.StatusCode, env.Error.Code, codeTooLarge)
		}
	})
	t.Run("not_found", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		resp := postJSON(t, ts.URL+"/v1/translate", translateRequest{Key: "deadbeef"})
		var env errorEnvelope
		decodeBody(t, resp, &env)
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != codeNotFound {
			t.Fatalf("status=%d code=%q, want 404/%q", resp.StatusCode, env.Error.Code, codeNotFound)
		}
	})
}

func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp := postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: fixtureSources()})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestSaturationReturns503(t *testing.T) {
	entered := make(chan struct{})
	unblock := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	s.testHookSlow = func() {
		entered <- struct{}{}
		<-unblock
	}

	errCh := make(chan error, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: fixtureSources()})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errCh <- fmt.Errorf("first request: status %d", resp.StatusCode)
		} else {
			errCh <- nil
		}
	}()
	<-entered // the single worker slot is now held

	resp := postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Domain: "Book"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var env errorEnvelope
	decodeBody(t, resp, &env)
	if env.Error.Code != codeSaturated {
		t.Fatalf("error code = %q, want %q", env.Error.Code, codeSaturated)
	}

	close(unblock)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutCancelsAndCachesNothing: on expiry the request answers 504
// immediately; the abandoned flight (its last waiter gone) is canceled,
// the worker slot frees, and no partial result reaches the cache — a retry
// of the same key is a fresh cold computation, not a hit.
func TestTimeoutCancelsAndCachesNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	s.testHookSlow = func() { time.Sleep(150 * time.Millisecond) }

	resp := postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: fixtureSources()})
	var env errorEnvelope
	decodeBody(t, resp, &env)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if env.Error.Code != codeTimeout {
		t.Fatalf("error code = %q, want %q", env.Error.Code, codeTimeout)
	}

	// The 504 answers while the abandoned run winds down in the
	// background; wait for it to cancel, free its slot and leave the
	// flight group.
	waitDrained(t, s)
	if s.cache.Len() != 0 {
		t.Fatalf("canceled integration reached the cache (%d entries)", s.cache.Len())
	}

	// A retry with a sane budget recomputes and succeeds.
	s.testHookSlow = nil
	s.cfg.RequestTimeout = 5 * time.Second
	var retry integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: fixtureSources()}), &retry)
	if retry.Cached {
		t.Fatal("retry was a cache hit: the timed-out run must not have cached")
	}
	if retry.Key == "" || retry.Tree == nil {
		t.Fatal("retry did not produce a result")
	}
}

// waitDrained blocks until no computation is in flight and no flight
// remains in the coalescing group (or fails the test after 2 s).
func waitDrained(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.metrics.inflight.Load() != 0 || s.flights.inflightKeys() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server did not drain: inflight=%d flights=%d",
				s.metrics.inflight.Load(), s.flights.inflightKeys())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientCancelDoesNotCache drops the connection mid-computation: the
// pipeline must stop, free its slot, and cache nothing.
func TestClientCancelDoesNotCache(t *testing.T) {
	entered := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	s.testHookSlow = func() {
		close(entered)
		time.Sleep(100 * time.Millisecond)
	}

	data, _ := json.Marshal(integrateRequest{Sources: fixtureSources()})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/integrate", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	cancel()
	<-done

	deadline := time.Now().Add(2 * time.Second)
	for s.metrics.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d after client cancel, want 0", s.metrics.inflight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.cache.Len() != 0 {
		t.Fatalf("canceled integration reached the cache (%d entries)", s.cache.Len())
	}
}

func TestExtract(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	page := `<html><body>
	  <form name="flights">
	    <label for="f">From</label><input id="f" name="from">
	    <label for="t">To</label><input id="t" name="to">
	  </form>
	  <form name="trips">
	    <label for="d">From</label><input id="d" name="depart">
	    <label for="a">To</label><input id="a" name="arrive">
	  </form>
	</body></html>`

	var out extractResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/extract", extractRequest{HTML: page}), &out)
	if len(out.Trees) != 2 {
		t.Fatalf("extracted %d trees, want 2", len(out.Trees))
	}

	var integrated integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/extract",
		extractRequest{HTML: page, Integrate: true}), &integrated)
	if integrated.Key == "" || integrated.Tree == nil {
		t.Fatalf("extract+integrate gave no result: %+v", integrated)
	}

	resp := postJSON(t, ts.URL+"/v1/extract", extractRequest{HTML: "<p>no forms here</p>"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("form-free page: status = %d, want 400", resp.StatusCode)
	}
}

func TestTranslate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var integrated integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: fixtureSources()}), &integrated)

	var out translateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/translate", translateRequest{
		Key:   integrated.Key,
		Query: map[string]string{"c_From": "Chicago", "c_Adult": "2"},
	}), &out)
	if len(out.SubQueries) != 3 {
		t.Fatalf("got %d subqueries, want 3", len(out.SubQueries))
	}
	for _, sub := range out.SubQueries {
		if len(sub.Assignments) == 0 {
			t.Errorf("source %q received no assignments", sub.Interface)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/translate", translateRequest{Key: "deadbeef", Query: nil})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status = %d, want 404", resp.StatusCode)
	}
}

func TestDomainsHealthzMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var domains map[string][]domainInfo
	resp, err := http.Get(ts.URL + "/v1/domains")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &domains)
	if len(domains["domains"]) != 7 {
		t.Fatalf("got %d domains, want 7", len(domains["domains"]))
	}
	for _, d := range domains["domains"] {
		if d.Interfaces == 0 {
			t.Errorf("domain %q reports no interfaces", d.Name)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Generate one integration, then check the counters surface.
	postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: fixtureSources()}).Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	decodeBody(t, resp, &snap)
	if snap.Endpoints["/v1/integrate"].Count != 1 {
		t.Fatalf("integrate count = %d, want 1", snap.Endpoints["/v1/integrate"].Count)
	}
	if snap.Cache.Misses != 1 || snap.Cache.Entries != 1 {
		t.Fatalf("cache snapshot = %+v", snap.Cache)
	}
	if snap.Naming["total"] == 0 {
		t.Fatal("no inference-rule firings aggregated")
	}
	for _, stage := range []string{"validate", "merge", "naming"} {
		st, ok := snap.Stages[stage]
		if !ok || st.Count == 0 {
			t.Errorf("stage %q missing from metrics: %+v", stage, snap.Stages)
		}
	}
	if snap.Stages["naming"].Units == 0 {
		t.Error("naming stage reports zero units")
	}
	// What the warm caches hold, and the live heap it adds up to.
	if w := snap.Warm; w.LabelsInterned == 0 || w.Verdicts == 0 || w.Solves == 0 || w.Nodes == 0 || w.SourcesMemoized == 0 {
		t.Errorf("warm populations missing from metrics: %+v", w)
	}
	runtime.GC()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &snap)
	if snap.Runtime.HeapLiveBytes == 0 || snap.Runtime.GCCycles == 0 {
		t.Errorf("runtime section after a collection = %+v", snap.Runtime)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.Put("a", &cacheEntry{})
	c.Put("b", &cacheEntry{})
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", &cacheEntry{})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestConcurrentIntegrate hammers /v1/integrate from many goroutines
// (run with -race): a mix of two pools, so cold computations, warm hits
// and saturation rejections interleave.
func TestConcurrentIntegrate(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 4})
	pools := [][]*qilabel.Tree{fixtureSources(), fixtureSources()[:2]}

	const goroutines, perG = 16, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp := postJSON(t, ts.URL+"/v1/integrate",
					integrateRequest{Sources: pools[(g+i)%len(pools)]})
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusServiceUnavailable:
				default:
					errs <- fmt.Errorf("goroutine %d: status %d", g, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	hits, misses := s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load()
	if hits == 0 {
		t.Fatal("no warm cache hits under concurrent load")
	}
	if misses == 0 {
		t.Fatal("no cold misses recorded")
	}
	if s.metrics.inflight.Load() != 0 {
		t.Fatalf("inflight gauge = %d after drain, want 0", s.metrics.inflight.Load())
	}
}

// TestGracefulShutdownDrains verifies http.Server.Shutdown lets an
// in-flight integration finish (the qilabeld exit path).
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{})
	entered := make(chan struct{})
	s.testHookSlow = func() {
		close(entered)
		time.Sleep(150 * time.Millisecond)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)

	status := make(chan int, 1)
	go func() {
		resp := postJSON(t, "http://"+ln.Addr().String()+"/v1/integrate",
			integrateRequest{Sources: fixtureSources()})
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if got := <-status; got != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", got)
	}
}
