package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"qilabel"
)

// read-mostly: an open loop of Poisson arrivals at a fixed ladder of
// rates against a primed working set — the 7 builtin domains plus a small
// synthetic pool, together well inside the default 128-entry result LRU.
// About 90 % of operations translate a query against a primed key, 9 %
// repeat a primed integration (a cache hit, by builtin domain name or by
// inline sources) and 1 % integrate a fresh small set, inserting a key.

const (
	poolSets       = 57 // synthetic sets primed beside the 7 builtin domains
	queriesPerKey  = 4
	translateShare = 0.90
	hitShare       = 0.09 // the rest are writes
	// latencyLimit is the p99 a rung must meet to count toward
	// max_rate_ops_s. lagLimit is how late (p99) the generator may release
	// arrivals on a rung before that rung cannot vouch for its rate; a run
	// whose reference rung exceeds it is reported invalid. The machine
	// this was tuned on (a 2-vCPU virtual machine) stalls a busy thread
	// for several milliseconds many times a second, so only a generator
	// that is itself starved of CPU runs later than this.
	latencyLimit = 25 * time.Millisecond
	lagLimit     = 25 * time.Millisecond
)

// ladderRung is one fixed rate of the ladder and its share of the window.
type ladderRung struct {
	rate  float64 // arrivals per second
	share float64 // fraction of the window
}

// ladder runs in ascending order. p50_ms and p99_ms are reported at the
// reference rung, a rate the daemon serves with room to spare; the last
// rung offers more than two connections can carry, so its achieved
// completion rate is the daemon's read-path capacity (throughput_ops_s).
var ladder = []ladderRung{
	{250, 0.06}, {500, 0.06}, {1000, 0.46}, {2000, 0.06}, {4000, 0.06}, {8000, 0.30},
}

const refRung = 2

type readKind uint8

const (
	opTranslate readKind = iota
	opHit
	opWrite
)

type readOp struct {
	kind   readKind
	target int // key index (translate, hit) or write index
	query  int // translate only
}

// readKey is one primed working-set entry.
type readKey struct {
	name    string // builtin domain name, or "" for an inline set
	body    []byte // the integrate request that primes and hits it
	want    expected
	queries [queriesPerKey][]byte
	answers [queriesPerKey]translateReply
}

type readWorkload struct {
	seed   uint64
	keys   []*readKey
	writes []coldItem
	rungs  [][]arrival
	ops    []readOp

	replies []readReply // indexed by operation
	bodyMu  sync.Mutex
	bodies  map[[32]byte][]byte
}

type readReply struct {
	sent bool
	sum  [32]byte
}

// readPoolSet generates synthetic working-set entry j.
func readPoolSet(seed uint64, j int) ([]*qilabel.Tree, bool, error) {
	trees, err := smallSet(seed, "pool", j)
	return trees, j%2 == 1, err
}

// readWriteSet generates fresh write k (annotated, never primed).
func readWriteSet(seed uint64, k int) ([]*qilabel.Tree, error) {
	trees, err := smallSet(seed, "write", k)
	return trees, err
}

// queryValues are the values translate queries assign; some match
// predefined domains, most do not, so both exact and coerced assignments
// occur.
var queryValues = []string{"1", "2", "any", "yes", "new", "economy", "2006", "red"}

// buildKeys computes the working set in-process: every entry's expected
// integration and, for each of its queries, the expected translation.
func buildKeys(seed uint64, igs integrators) ([]*readKey, []*qilabel.Result, error) {
	var keys []*readKey
	var results []*qilabel.Result
	add := func(name string, trees []*qilabel.Tree, matcher bool, body []byte) error {
		ig := igs.of(matcher)
		res, err := ig.Integrate(trees)
		if err != nil {
			return err
		}
		want, err := expectedOf(ig.CacheKey(trees), res)
		if err != nil {
			return err
		}
		k := &readKey{name: name, body: body, want: want}
		clusters := make([]string, 0, len(res.Labels))
		for c := range res.Labels {
			clusters = append(clusters, c)
		}
		sort.Strings(clusters)
		r := newRNG(seed, "query:"+want.key)
		for q := range k.queries {
			query := qilabel.Query{}
			for n := 1 + r.intn(3); n > 0 && len(clusters) > 0; n-- {
				query[clusters[r.intn(len(clusters))]] = queryValues[r.intn(len(queryValues))]
			}
			if k.queries[q], err = json.Marshal(map[string]any{"key": want.key, "query": query}); err != nil {
				return err
			}
			if k.answers[q], err = expectedTranslation(want.key, res.Translate(query)); err != nil {
				return err
			}
		}
		keys = append(keys, k)
		results = append(results, res)
		return nil
	}
	for _, name := range qilabel.BuiltinDomains() {
		trees, err := qilabel.BuiltinDomain(name)
		if err != nil {
			return nil, nil, err
		}
		body, err := json.Marshal(map[string]string{"domain": name})
		if err != nil {
			return nil, nil, err
		}
		if err := add(name, trees, false, body); err != nil {
			return nil, nil, fmt.Errorf("builtin domain %s: %w", name, err)
		}
	}
	for j := 0; j < poolSets; j++ {
		trees, matcher, err := readPoolSet(seed, j)
		if err != nil {
			return nil, nil, err
		}
		body, err := integrateBody(trees, matcher)
		if err != nil {
			return nil, nil, err
		}
		if err := add("", trees, matcher, body); err != nil {
			return nil, nil, fmt.Errorf("pool set %d: %w", j, err)
		}
	}
	return keys, results, nil
}

// readSchedule draws the ladder's arrivals and their operations.
func readSchedule(seed uint64, window time.Duration, nkeys int) ([][]arrival, []readOp) {
	var (
		rungs  [][]arrival
		ops    []readOp
		writes int
	)
	pickRNG := newRNG(seed, "read-ops")
	pick := func() int {
		var op readOp
		switch u := pickRNG.float(); {
		case u < translateShare:
			op = readOp{kind: opTranslate, target: pickRNG.intn(nkeys), query: pickRNG.intn(queriesPerKey)}
		case u < translateShare+hitShare:
			op = readOp{kind: opHit, target: pickRNG.intn(nkeys)}
		default:
			op = readOp{kind: opWrite, target: writes}
			writes++
		}
		ops = append(ops, op)
		return len(ops) - 1
	}
	timeRNG := newRNG(seed, "read-arrivals")
	for _, lr := range ladder {
		dur := time.Duration(float64(window) * lr.share)
		rungs = append(rungs, poissonSchedule(timeRNG, lr.rate, dur, pick))
	}
	return rungs, ops
}

func (w *readWorkload) prepare(window time.Duration) error {
	igs, err := newIntegrators(nil)
	if err != nil {
		return err
	}
	if w.keys, _, err = buildKeys(w.seed, igs); err != nil {
		return err
	}
	w.rungs, w.ops = readSchedule(w.seed, window, len(w.keys))
	for _, op := range w.ops {
		if op.kind != opWrite {
			continue
		}
		trees, err := readWriteSet(w.seed, op.target)
		if err != nil {
			return err
		}
		body, err := integrateBody(trees, false)
		if err != nil {
			return err
		}
		ig := igs.of(false)
		res, err := ig.Integrate(trees)
		if err != nil {
			return fmt.Errorf("write %d in-process: %w", op.target, err)
		}
		want, err := expectedOf(ig.CacheKey(trees), res)
		if err != nil {
			return err
		}
		w.writes = append(w.writes, coldItem{body: body, want: want})
	}
	w.replies = make([]readReply, len(w.ops))
	w.bodies = make(map[[32]byte][]byte)
	return nil
}

func (w *readWorkload) prime(ctx context.Context, d *daemon) error {
	bodies := make([][]byte, len(w.keys))
	for i, k := range w.keys {
		bodies[i] = k.body
	}
	return postAll(ctx, d, "/v1/integrate", bodies)
}

// send issues operation i and records a digest of its reply; the first
// reply with each digest is kept whole for the check.
func (w *readWorkload) send(d *daemon, i int) opFunc {
	return func(ctx context.Context) (string, bool) {
		op := w.ops[i]
		var route string
		var body []byte
		switch op.kind {
		case opTranslate:
			route, body = "/v1/translate", w.keys[op.target].queries[op.query]
		case opHit:
			route, body = "/v1/integrate", w.keys[op.target].body
		default:
			route, body = "/v1/integrate", w.writes[op.target].body
		}
		status, reply, err := call(ctx, d.client, http.MethodPost, d.base+route, body)
		if err != nil || status != http.StatusOK {
			return route, false
		}
		sum := sha256.Sum256(reply)
		w.replies[i] = readReply{sent: true, sum: sum}
		w.bodyMu.Lock()
		if _, ok := w.bodies[sum]; !ok {
			w.bodies[sum] = reply
		}
		w.bodyMu.Unlock()
		return route, true
	}
}

func (w *readWorkload) run(ctx context.Context, d *daemon, window time.Duration) (*outcome, error) {
	o := &outcome{route: "/v1/translate", window: window}
	var results []rung
	for ri, sched := range w.rungs {
		dur := time.Duration(float64(window) * ladder[ri].share)
		samples, backlog, lags := openRung(ctx, conns, dur, sched, func(op int) opFunc { return w.send(d, op) })
		r := rung{Rate: ladder[ri].rate, Offered: len(sched), Sent: len(samples), Backlog: backlog, Lag: quantile(lags, 0.99)}
		var lats []time.Duration
		for _, s := range samples {
			if s.err {
				r.Failed++
				continue
			}
			lats = append(lats, s.lat)
		}
		r.P50, r.P99, r.Tail = quantile(lats, 0.5), quantile(lats, 0.99), tailCount(lats, 0.99)
		r.Achieved = successRate(samples, 0, dur)
		results = append(results, r)
		o.attempted += len(samples)
		o.failed += r.Failed
		if ri == refRung {
			o.samples, o.lags = samples, lags
		}
	}
	top := results[len(results)-1]
	o.throughput = top.Achieved
	o.notes = append(o.notes, fmt.Sprintf("max_rate_ops_s    %10.0f 1/s  highest ladder rate with p99 <= %s, no failures, no growing backlog, generator lag p99 <= %s",
		maxRate(results, latencyLimit, lagLimit, conns), latencyLimit, lagLimit))
	o.notes = append(o.notes, "ladder (p50_ms/p99_ms reported at the * rung; throughput_ops_s is the last rung's achieved rate):")
	for ri, r := range results {
		mark := " "
		if ri == refRung {
			mark = "*"
		}
		o.notes = append(o.notes, fmt.Sprintf(" %s rate %6.0f/s  offered %6d  sent %6d  failed %d  backlog %6d  achieved %8.1f/s  p50 %8.3f ms  p99 %8.3f ms (%d beyond)  lag p99 %.3f ms  pass %v",
			mark, r.Rate, r.Offered, r.Sent, r.Failed, r.Backlog, r.Achieved, ms(r.P50), ms(r.P99), r.Tail, ms(r.Lag), r.passes(latencyLimit, lagLimit, conns)))
	}
	// The reported percentiles are medians over one-second slices of the
	// reference rung (each slice holds about a thousand operations, so its
	// p99 rests on about ten), which a passing burst of interference on
	// the machine moves by one slice at most.
	p50s, p99s := sliceQuantile(o.samples, time.Second, 0.5), sliceQuantile(o.samples, time.Second, 0.99)
	o.p50, o.p99 = medianDuration(p50s), medianDuration(p99s)
	o.notes = append(o.notes, fmt.Sprintf("   at the * rung, by one-second slice: p50 ms %s  p99 ms %s", fmtMs(p50s), fmtMs(p99s)))
	byKind := map[readKind][]time.Duration{}
	for _, s := range o.samples {
		if !s.err {
			byKind[w.ops[s.op].kind] = append(byKind[w.ops[s.op].kind], s.lat)
		}
	}
	for _, k := range []struct {
		kind readKind
		name string
	}{{opTranslate, "translate"}, {opHit, "integrate hit"}, {opWrite, "integrate write"}} {
		l := byKind[k.kind]
		o.notes = append(o.notes, fmt.Sprintf("   at the * rung, %-15s n=%5d  p50 %8.3f ms  p99 %8.3f ms", k.name, len(l), ms(quantile(l, 0.5)), ms(quantile(l, 0.99))))
	}
	if results[refRung].Lag > lagLimit {
		o.notes = append(o.notes, fmt.Sprintf("RUN INVALID: the generator ran %.3f ms late (p99) at the reference rate, over the %s limit; compare no figure of this run",
			ms(results[refRung].Lag), lagLimit))
	}
	return o, nil
}

func (w *readWorkload) check(_ context.Context, _ *daemon, o *outcome) error {
	type verdict struct {
		sum [32]byte
		op  readOp
	}
	seen := make(map[verdict]error)
	for i, r := range w.replies {
		if !r.sent {
			continue
		}
		op := w.ops[i]
		key := verdict{r.sum, op}
		err, done := seen[key]
		if !done {
			body := w.bodies[r.sum]
			switch op.kind {
			case opTranslate:
				err = checkTranslation(body, w.keys[op.target].answers[op.query])
			case opHit:
				err = w.keys[op.target].want.check(body)
			default:
				err = w.writes[op.target].want.check(body)
			}
			seen[key] = err
		}
		if err != nil {
			o.wrong++
			o.failed++
			if o.wrong <= 3 {
				o.notes = append(o.notes, fmt.Sprintf("wrong answer for operation %d: %v", i, err))
			}
		}
	}
	return nil
}

func fmtMs(ds []time.Duration) string {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return fmtFloats(xs)
}
