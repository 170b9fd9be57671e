package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"qilabel"
	"qilabel/internal/discover"
	"qilabel/internal/server"
)

// The traced run replays each workload's inputs in-process, sequentially,
// with a span around every call into a layer's public functions. The
// replay sizes are fixed so both passes (spans off, spans on) do the same
// work.
const (
	replayColdSets   = 64   // integrate-cold inputs
	replayReadOps    = 3000 // read-mostly operations after priming
	replayLifecycles = 24   // stateful session lifecycles
	replayForms      = 96   // stateful stream forms from the first epoch, plus duplicates
)

// replayAll runs the three input families and returns every per-layer
// metric the replay measures. own names the workload whose warm-cache
// ratios are reported.
func replayAll(own string, seed uint64, rec *recorder) (map[string]float64, error) {
	vals := make(map[string]float64)
	coldWarm, err := replayCold(seed, rec, vals)
	if err != nil {
		return nil, fmt.Errorf("integrate-cold replay: %w", err)
	}
	readWarm, err := replayRead(seed, rec, vals)
	if err != nil {
		return nil, fmt.Errorf("read-mostly replay: %w", err)
	}
	stateWarm, err := replayStateful(seed, rec, vals)
	if err != nil {
		return nil, fmt.Errorf("stateful replay: %w", err)
	}
	warm := map[string]qilabel.WarmStats{"integrate-cold": coldWarm, "read-mostly": readWarm, "stateful": stateWarm}[own]
	warmRatios(warm, vals)
	return vals, nil
}

// memDelta measures what f allocates: heap objects and bytes. It reads
// the runtime's statistics (a brief stop-the-world) only when tracing.
func memDelta(on bool, f func()) (allocs, bytes float64) {
	if !on {
		f()
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// replayCold integrates the first replayColdSets integrate-cold inputs on
// warm Integrators whose stage observer records match, merge, naming and
// validate as child spans of the integration.
func replayCold(seed uint64, rec *recorder, vals map[string]float64) (qilabel.WarmStats, error) {
	cur := -1
	units := make(map[string][]float64)
	igs, err := newIntegrators(func(e qilabel.StageEvent) {
		name := e.Stage + ".stage"
		if e.Stage == "validate" {
			name = "qilabel.validate"
		}
		rec.child(name, cur, e.Duration)
		if rec.on {
			units[e.Stage] = append(units[e.Stage], float64(e.Units))
		}
	})
	if err != nil {
		return qilabel.WarmStats{}, err
	}
	var allocs, mbs []float64
	for i := 0; i < replayColdSets; i++ {
		trees, shape, err := coldSet(seed, "cold", i)
		if err != nil {
			return qilabel.WarmStats{}, err
		}
		rec.request()
		var ierr error
		a, b := memDelta(rec.on, func() {
			cur = rec.begin("qilabel.integrate", -1)
			_, ierr = igs.of(shape.matcher).Integrate(trees)
			rec.end(cur)
		})
		if ierr != nil {
			return qilabel.WarmStats{}, ierr
		}
		allocs, mbs = append(allocs, a), append(mbs, b/1e6)
	}
	vals["qilabel.integrate_ms"] = ms(medianDuration(rec.durations("qilabel.integrate")))
	vals["qilabel.integrate_allocs"] = medianFloat(allocs)
	vals["qilabel.integrate_mb"] = medianFloat(mbs)
	vals["qilabel.validate_ms"] = ms(medianDuration(rec.durations("qilabel.validate")))
	for _, st := range []string{"match", "merge", "naming"} {
		vals[st+".ms"] = ms(medianDuration(rec.durations(st + ".stage")))
		vals[st+".units"] = medianFloat(units[st])
	}
	return sumWarm(igs[0].WarmStats(), igs[1].WarmStats()), nil
}

// replayRead primes an in-process server with the read-mostly working set
// and replays the first replayReadOps operations of the read-mostly
// schedule through its handler. After each request it repeats the layer
// calls the handler made — BuiltinDomain, CacheKey, Result.Translate — on
// the same inputs, so the handler's own (server) time can be separated.
func replayRead(seed uint64, rec *recorder, vals map[string]float64) (qilabel.WarmStats, error) {
	igs, err := newIntegrators(nil)
	if err != nil {
		return qilabel.WarmStats{}, err
	}
	keys, results, err := buildKeys(seed, igs)
	if err != nil {
		return qilabel.WarmStats{}, err
	}
	trees := make([][]*qilabel.Tree, len(keys))
	matcher := make([]bool, len(keys))
	for i, k := range keys {
		if k.name != "" {
			continue
		}
		if trees[i], matcher[i], err = readPoolSet(seed, i-len(qilabel.BuiltinDomains())); err != nil {
			return qilabel.WarmStats{}, err
		}
	}
	srv := server.New(server.Config{})
	h := srv.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return w
	}
	for _, k := range keys {
		if w := serve(http.MethodPost, "/v1/integrate", k.body); w.Code != http.StatusOK {
			return qilabel.WarmStats{}, fmt.Errorf("priming answered %d", w.Code)
		}
	}
	// One second of the ladder schedules more operations than the replay
	// takes; the operation mix does not depend on the window.
	_, ops := readSchedule(seed, time.Second, len(keys))
	var (
		selfHit, selfTr, hitAllocs []float64
		respBytes, reads           float64
	)
	for i := 0; i < replayReadOps && i < len(ops); i++ {
		op := ops[i]
		k := keys[op.target]
		rec.request()
		switch op.kind {
		case opTranslate:
			req := httptest.NewRequest(http.MethodPost, "/v1/translate", bytes.NewReader(k.queries[op.query]))
			w := httptest.NewRecorder()
			id := rec.begin("server.translate", -1)
			h.ServeHTTP(w, req)
			d := rec.end(id)
			var q struct {
				Query qilabel.Query `json:"query"`
			}
			if err := json.Unmarshal(k.queries[op.query], &q); err != nil {
				return qilabel.WarmStats{}, err
			}
			tid := rec.beginOf("translate.translate", id)
			results[op.target].Translate(q.Query)
			td := rec.end(tid)
			selfTr = append(selfTr, us(d-td))
			respBytes += float64(w.Body.Len())
			reads++
		case opHit:
			req := httptest.NewRequest(http.MethodPost, "/v1/integrate", bytes.NewReader(k.body))
			w := httptest.NewRecorder()
			var d time.Duration
			id := -1
			a, _ := memDelta(rec.on, func() {
				id = rec.begin("server.integrate_hit", -1)
				h.ServeHTTP(w, req)
				d = rec.end(id)
			})
			hitAllocs = append(hitAllocs, a)
			src, m := trees[op.target], matcher[op.target]
			var parts time.Duration
			if k.name != "" {
				bid := rec.beginOf("qilabel.builtin_domain", id)
				if src, err = qilabel.BuiltinDomain(k.name); err != nil {
					return qilabel.WarmStats{}, err
				}
				parts += rec.end(bid)
			}
			cid := rec.beginOf("qilabel.cachekey", id)
			igs.of(m).CacheKey(src)
			parts += rec.end(cid)
			selfHit = append(selfHit, us(d-parts))
			respBytes += float64(w.Body.Len())
			reads++
		default:
			trees, err := readWriteSet(seed, op.target)
			if err != nil {
				return qilabel.WarmStats{}, err
			}
			body, err := integrateBody(trees, false)
			if err != nil {
				return qilabel.WarmStats{}, err
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/integrate", bytes.NewReader(body))
			id := rec.begin("server.integrate_write", -1)
			h.ServeHTTP(httptest.NewRecorder(), req)
			rec.end(id)
		}
	}
	vals["server.hit_us"] = us(medianDuration(rec.durations("server.integrate_hit")))
	vals["server.hit_allocs"] = medianFloat(hitAllocs)
	vals["server.translate_us"] = us(medianDuration(rec.durations("server.translate")))
	vals["server.resp_bytes"] = ratio(respBytes, reads)
	vals["server.self_us.integrate"] = medianFloat(selfHit)
	vals["server.self_us.translate"] = medianFloat(selfTr)
	vals["qilabel.builtin_domain_us"] = us(medianDuration(rec.durations("qilabel.builtin_domain")))
	vals["qilabel.cachekey_us"] = us(medianDuration(rec.durations("qilabel.cachekey")))
	vals["translate.us"] = us(medianDuration(rec.durations("translate.translate")))

	// The server's own Integrators ran the priming and the writes; their
	// warm counters are on its /metrics.
	w := serve(http.MethodGet, "/metrics", nil)
	var m struct {
		Warm struct {
			LabelHits, LabelMisses, VerdictHits, VerdictMisses       uint64
			SolveHits, SolveMisses, NodeHits, NodeMisses             uint64
			MatchKeyHits, MatchKeyMisses                             uint64
			MatchPairHits, MatchPairMisses, SourceHits, SourceMisses uint64
		} `json:"warm"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		return qilabel.WarmStats{}, fmt.Errorf("decoding in-process /metrics: %w", err)
	}
	x := m.Warm
	return qilabel.WarmStats{
		LabelHits: x.LabelHits, LabelMisses: x.LabelMisses, VerdictHits: x.VerdictHits, VerdictMisses: x.VerdictMisses,
		SolveHits: x.SolveHits, SolveMisses: x.SolveMisses, NodeHits: x.NodeHits, NodeMisses: x.NodeMisses,
		MatchKeyHits: x.MatchKeyHits, MatchKeyMisses: x.MatchKeyMisses, MatchPairHits: x.MatchPairHits,
		MatchPairMisses: x.MatchPairMisses, SourceHits: x.SourceHits, SourceMisses: x.SourceMisses,
	}, nil
}

// replayStateful runs replayLifecycles session lifecycles on qilabel
// Sessions and ingests the first replayForms forms of the first stream
// epoch (with the workload's duplicate rate) into a discovery engine
// configured like qilabeld's.
func replayStateful(seed uint64, rec *recorder, vals map[string]float64) (qilabel.WarmStats, error) {
	ctx := context.Background()
	igs, err := newIntegrators(nil)
	if err != nil {
		return qilabel.WarmStats{}, err
	}
	var reused, components float64
	timed := func(name string, f func() error) error {
		id := rec.begin(name, -1)
		err := f()
		rec.end(id)
		return err
	}
	for j := 0; j < replayLifecycles; j++ {
		trees, matcher, err := lifeSet(seed, j)
		if err != nil {
			return qilabel.WarmStats{}, err
		}
		rec.request()
		sess := igs.of(matcher).NewSession()
		var hashes [lifeSources]string
		tally := func() {
			st := sess.Stats()
			reused += float64(st.ComponentsReused)
			components += float64(st.Components)
		}
		for i := 0; i < lifeSources; i++ {
			if err := timed("delta.add", func() (err error) { hashes[i], err = sess.AddSource(ctx, trees[i]); return }); err != nil {
				return qilabel.WarmStats{}, err
			}
			tally()
		}
		if err := timed("delta.update", func() error { _, err := sess.UpdateSource(ctx, hashes[lifeUpdate], trees[lifeSources]); return err }); err != nil {
			return qilabel.WarmStats{}, err
		}
		tally()
		if err := timed("delta.remove", func() error { return sess.RemoveSource(ctx, hashes[lifeRemove]) }); err != nil {
			return qilabel.WarmStats{}, err
		}
		tally()
		if err := timed("delta.result", func() error { _, err := sess.Result(); return err }); err != nil {
			return qilabel.WarmStats{}, err
		}
	}
	vals["delta.add_ms"] = ms(medianDuration(rec.durations("delta.add")))
	vals["delta.update_ms"] = ms(medianDuration(rec.durations("delta.update")))
	vals["delta.remove_ms"] = ms(medianDuration(rec.durations("delta.remove")))
	vals["delta.reuse_ratio"] = ratio(reused, components)

	stm, lex, err := newStream(seed, 1)
	if err != nil {
		return qilabel.WarmStats{}, err
	}
	dig, err := qilabel.NewIntegrator(qilabel.Config{UseMatcher: true, Lexicon: lex})
	if err != nil {
		return qilabel.WarmStats{}, err
	}
	eng, err := discover.New(discover.Config{Integrator: dig, TTL: 15 * time.Minute, MaxDomains: 64})
	if err != nil {
		return qilabel.WarmStats{}, err
	}
	r := newRNG(seed, "replay-dups")
	for k := 0; k < replayForms && k < len(stm.trees); k++ {
		picks := []int{k}
		if k > 0 && (k+1)%dupEvery == 0 {
			picks = append(picks, r.intn(k))
		}
		for _, p := range picks {
			rec.request()
			if err := timed("discover.ingest", func() error { _, err := eng.Ingest(ctx, stm.trees[p]); return err }); err != nil {
				return qilabel.WarmStats{}, err
			}
		}
	}
	st := eng.Stats()
	vals["discover.ingest_ms"] = ms(medianDuration(rec.durations("discover.ingest")))
	vals["discover.domains"] = float64(st.Domains)
	vals["discover.created"] = float64(st.Created)
	vals["discover.merged"] = float64(st.Merged)
	return sumWarm(igs[0].WarmStats(), igs[1].WarmStats(), dig.WarmStats()), nil
}

func sumWarm(stats ...qilabel.WarmStats) qilabel.WarmStats {
	var s qilabel.WarmStats
	for _, w := range stats {
		s.LabelHits += w.LabelHits
		s.LabelMisses += w.LabelMisses
		s.VerdictHits += w.VerdictHits
		s.VerdictMisses += w.VerdictMisses
		s.SolveHits += w.SolveHits
		s.SolveMisses += w.SolveMisses
		s.NodeHits += w.NodeHits
		s.NodeMisses += w.NodeMisses
		s.MatchKeyHits += w.MatchKeyHits
		s.MatchKeyMisses += w.MatchKeyMisses
		s.MatchPairHits += w.MatchPairHits
		s.MatchPairMisses += w.MatchPairMisses
		s.SourceHits += w.SourceHits
		s.SourceMisses += w.SourceMisses
	}
	return s
}

// warmRatios turns warm-cache counters into hit ratios, one per cache
// plus the overall one.
func warmRatios(w qilabel.WarmStats, vals map[string]float64) {
	hr := func(h, m uint64) float64 { return ratio(float64(h), float64(h+m)) }
	vals["naming.warm_label_hit_ratio"] = hr(w.LabelHits, w.LabelMisses)
	vals["naming.warm_verdict_hit_ratio"] = hr(w.VerdictHits, w.VerdictMisses)
	vals["naming.warm_solve_hit_ratio"] = hr(w.SolveHits, w.SolveMisses)
	vals["naming.warm_node_hit_ratio"] = hr(w.NodeHits, w.NodeMisses)
	vals["match.warm_key_hit_ratio"] = hr(w.MatchKeyHits, w.MatchKeyMisses)
	vals["match.warm_pair_hit_ratio"] = hr(w.MatchPairHits, w.MatchPairMisses)
	vals["qilabel.warm_source_hit_ratio"] = hr(w.SourceHits, w.SourceMisses)
	hits := w.LabelHits + w.VerdictHits + w.SolveHits + w.NodeHits + w.MatchKeyHits + w.MatchPairHits + w.SourceHits
	misses := w.LabelMisses + w.VerdictMisses + w.SolveMisses + w.NodeMisses + w.MatchKeyMisses + w.MatchPairMisses + w.SourceMisses
	vals["qilabel.warm_hit_ratio"] = hr(hits, misses)
}
