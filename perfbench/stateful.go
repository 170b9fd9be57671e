package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qilabel"
	"qilabel/internal/lexicon"
	"qilabel/internal/synth"
)

// stateful: a closed loop of conns clients, each interleaving two kinds of
// work at random — delta-session lifecycles on /v1/sessions (create, add
// the sources one at a time, one update, one remove, read the result,
// close) and a shuffled multi-domain form stream replayed through
// /v1/ingest, with re-ingested duplicates.

const (
	lifeSources  = 6 // sources a lifecycle adds; one more is the update's replacement
	lifeConcepts = 10
	lifeUpdate   = 2 // index of the source the update replaces
	lifeRemove   = 4 // index of the source the remove drops
	lifeSteps    = lifeSources + 5

	// The stream: streamEpochs epochs of streamDomains domains ×
	// streamSources forms, each epoch's forms shuffled among themselves
	// and the epochs sent one after another. Every domain's vocabulary
	// is synthesized on an empty lexicon, so no word relates two domains
	// and the ground-truth partition is exact by construction; that
	// lexicon is registered during set-up. Two epochs fill the daemon's
	// default cap of 64 live discovered domains: priming ingests the
	// first form of each of their domains (the stream's first
	// streamPrimed forms), so the window starts at the cap, and from the
	// third epoch on every founded domain evicts the least recently used
	// one. The daemon's discovery state stays the same size throughout.
	streamEpochs  = 12
	streamPrimed  = 2 * streamDomains
	streamDomains = 32
	streamSources = 4
	// Each client repeats a fixed pattern: stepsPerIngest lifecycle steps,
	// then one ingest; every dupEvery-th ingest re-sends a form the client
	// already sent in the current epoch. A fixed pattern keeps the mix of
	// cheap and costly operations the same in every run. A step costs a
	// small fraction of an ingest (which scores the form against every
	// live domain), so the stream still takes most of the daemon's time,
	// and the median falls inside the step latencies rather than on the
	// edge between the two kinds.
	stepsPerIngest = 4
	dupEvery       = 4
)

// lifecycle is one precomputed session lifecycle.
type lifecycle struct {
	create []byte
	adds   [lifeSources][]byte
	hashes [lifeSources]string
	update []byte
	want   expected
	ready  bool // want computed
}

func lifeSet(seed uint64, j int) ([]*qilabel.Tree, bool, error) {
	cfg, err := synth.Preset("small")
	if err != nil {
		return nil, false, err
	}
	cfg.Seed = derive(seed, "life", j)
	cfg.Domain = fmt.Sprintf("life%d", j)
	cfg.Sources, cfg.Concepts = lifeSources+1, lifeConcepts
	trees, err := synth.Generate(cfg)
	return trees, j%2 == 1, err
}

// lifeFinal is the source set a lifecycle ends with.
func lifeFinal(trees []*qilabel.Tree) []*qilabel.Tree {
	var out []*qilabel.Tree
	for i := 0; i < lifeSources; i++ {
		switch i {
		case lifeUpdate:
			out = append(out, trees[lifeSources])
		case lifeRemove:
		default:
			out = append(out, trees[i])
		}
	}
	return out
}

func newLifecycle(seed uint64, j int) (*lifecycle, error) {
	trees, matcher, err := lifeSet(seed, j)
	if err != nil {
		return nil, err
	}
	lc := &lifecycle{}
	if lc.create, err = json.Marshal(map[string]any{"options": wireOptions{matcher}}); err != nil {
		return nil, err
	}
	for i := 0; i < lifeSources; i++ {
		if lc.adds[i], err = json.Marshal(map[string]any{"source": trees[i]}); err != nil {
			return nil, err
		}
		lc.hashes[i] = trees[i].CanonicalHash()
	}
	if lc.update, err = json.Marshal(map[string]any{"source": trees[lifeSources]}); err != nil {
		return nil, err
	}
	return lc, nil
}

// stream is the ingest stream with its lexicon and ground truth.
type stream struct {
	lexID    string
	artifact []byte
	trees    []*qilabel.Tree
	bodies   [][]byte
	hashes   []string
	truth    []int // ground-truth domain of each form
}

func streamBase() synth.Config {
	return synth.Config{
		Sources: streamSources, Concepts: 8, GroupFanout: 3, Depth: 2, InstanceRatio: 0.5,
		SynthVocab: true, Lexicon: lexicon.New(),
		Perturb: synth.Perturb{SynonymSwap: 0.3, NumberVary: 0.15, Noise: 0.15, Dropout: 0.1, Reorder: 0.2},
	}
}

// newStream generates the first epochs epochs of the stream: all domains
// from one synth.MultiDomain blueprint (pairwise disjoint vocabularies).
// The stream opens with the first form of each of the first
// streamPrimed domains (the priming prefix), then each epoch's remaining
// forms in a seeded shuffle.
func newStream(seed uint64, epochs int) (*stream, *qilabel.Lexicon, error) {
	domains, lex, err := synth.MultiDomain(synth.StreamConfig{
		Seed: derive(seed, "stream", 0), Domains: epochs * streamDomains, Base: streamBase(),
	})
	if err != nil {
		return nil, nil, err
	}
	st := &stream{}
	add := func(order []int, label string) { // order: domain*streamSources + source
		r := newRNG(seed, label)
		for i := len(order) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, x := range order {
			st.trees = append(st.trees, domains[x/streamSources][x%streamSources])
			st.truth = append(st.truth, x/streamSources)
		}
	}
	primed := min(streamPrimed, len(domains))
	var prefix []int
	for d := 0; d < primed; d++ {
		prefix = append(prefix, d*streamSources)
	}
	add(prefix, "stream-prime")
	for e := 0; e < epochs; e++ {
		var order []int
		for d := e * streamDomains; d < (e+1)*streamDomains; d++ {
			for i := range domains[d] {
				if d >= primed || i > 0 {
					order = append(order, d*streamSources+i)
				}
			}
		}
		add(order, fmt.Sprintf("stream-order-%d", e))
	}
	return st, lex, nil
}

// encode fills in the wire form: request bodies, form hashes and the
// lexicon artifact.
func (st *stream) encode(lex *qilabel.Lexicon) error {
	st.lexID = lex.VersionID()
	var err error
	if st.artifact, err = lex.EncodeArtifact(); err != nil {
		return err
	}
	for _, t := range st.trees {
		body, err := json.Marshal(map[string]any{"source": t, "lexicon": st.lexID})
		if err != nil {
			return err
		}
		st.bodies = append(st.bodies, body)
		st.hashes = append(st.hashes, t.CanonicalHash())
	}
	return nil
}

type statefulWorkload struct {
	seed   uint64
	igs    integrators
	stream *stream

	mu     sync.Mutex
	lives  []*lifecycle
	nextLC atomic.Int64
	cursor atomic.Int64 // next fresh form of the stream

	results  []lifeResult
	ingested []ingestReply
}

type lifeResult struct {
	j    int
	body []byte
}

type ingestReply struct {
	form int
	body []byte
}

func (w *statefulWorkload) life(j int) (*lifecycle, error) {
	w.mu.Lock()
	if j < len(w.lives) && w.lives[j] != nil {
		lc := w.lives[j]
		w.mu.Unlock()
		return lc, nil
	}
	w.mu.Unlock()
	lc, err := newLifecycle(w.seed, j)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.lives) <= j {
		w.lives = append(w.lives, nil)
	}
	if w.lives[j] == nil {
		w.lives[j] = lc
	}
	return w.lives[j], nil
}

// expectLife computes lifecycle j's expected final result: a from-scratch
// integration of the source set it ends with.
func (w *statefulWorkload) expectLife(j int) (expected, error) {
	trees, matcher, err := lifeSet(w.seed, j)
	if err != nil {
		return expected{}, err
	}
	final := lifeFinal(trees)
	if w.igs[0] == nil {
		if w.igs, err = newIntegrators(nil); err != nil {
			return expected{}, err
		}
	}
	ig := w.igs.of(matcher)
	res, err := ig.Integrate(final)
	if err != nil {
		return expected{}, fmt.Errorf("lifecycle %d in-process: %w", j, err)
	}
	return expectedOf(ig.CacheKey(final), res)
}

func (w *statefulWorkload) prepare(window time.Duration) error {
	st, lex, err := newStream(w.seed, streamEpochs)
	if err != nil {
		return err
	}
	if err := st.encode(lex); err != nil {
		return err
	}
	w.stream = st
	// A lifecycle costs the daemon one pipeline run per step and shares
	// the window with the stream, its expectation one run in all, so a
	// fifth of the window's in-process work covers more lifecycles than
	// the window completes.
	deadline := time.Now().Add(window / 5)
	for j := 0; time.Now().Before(deadline); j++ {
		lc, err := w.life(j)
		if err != nil {
			return err
		}
		if lc.want, err = w.expectLife(j); err != nil {
			return err
		}
		lc.ready = true
	}
	// The warm caches grown here would only weigh on this process's
	// garbage collector during the window; check makes fresh ones.
	w.igs = integrators{}
	return nil
}

func (w *statefulWorkload) prime(ctx context.Context, d *daemon) error {
	status, body, err := call(ctx, d.client, http.MethodPut, d.base+"/v1/lexicons", w.stream.artifact)
	if err != nil {
		return err
	}
	var put struct {
		ID string `json:"id"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &put) != nil || put.ID != w.stream.lexID {
		return fmt.Errorf("registering the stream lexicon answered %d: %.200s", status, body)
	}
	return postAll(ctx, d, "/v1/ingest", w.stream.bodies[:streamPrimed])
}

// clientState is one client's place in its operation pattern, its current
// lifecycle and the stream epoch it last ingested from.
type clientState struct {
	r       *rng
	ops     int // operations issued
	ingests int
	lc      *lifecycle
	j       int
	step    int
	id      string
	hashes  [lifeSources]string
	// sent lists the fresh forms this client ingested in the current
	// epoch, the pool its duplicates are drawn from.
	sent      []int
	sentEpoch int
}

func (w *statefulWorkload) run(ctx context.Context, d *daemon, window time.Duration) (*outcome, error) {
	var (
		mu     sync.Mutex
		genErr error
	)
	w.cursor.Store(streamPrimed)
	states := make([]*clientState, conns)
	for c := range states {
		states[c] = &clientState{r: newRNG(w.seed, fmt.Sprintf("stateful-client-%d", c)), step: -1}
	}
	lifeOp := func(st *clientState) opFunc {
		if st.step < 0 {
			st.j = int(w.nextLC.Add(1) - 1)
			lc, err := w.life(st.j)
			if err != nil {
				mu.Lock()
				genErr = err
				mu.Unlock()
				return nil
			}
			st.lc, st.step = lc, 0
		}
		return w.lifeStep(d, st, &mu)
	}
	next := func(c int) opFunc {
		st := states[c]
		st.ops++
		if st.ops%(stepsPerIngest+1) != 0 {
			return lifeOp(st)
		}
		if op := w.ingestStep(d, st, &mu); op != nil {
			return op
		}
		return lifeOp(st) // the stream is exhausted
	}
	samples, lags := closedLoop(ctx, conns, window, next)
	if genErr != nil {
		return nil, genErr
	}
	o := &outcome{samples: samples, lags: lags, attempted: len(samples), route: "/v1/ingest", window: window}
	for _, s := range samples {
		if s.err {
			o.failed++
		}
	}
	forms := min(int(w.cursor.Load()), len(w.stream.bodies))
	o.notes = append(o.notes, fmt.Sprintf("lifecycles started: %d (%d precomputed); stream forms ingested: %d of %d (%d primed), up to epoch %d of %d; ingest requests: %d",
		w.nextLC.Load(), w.precomputed(), forms, len(w.stream.bodies), streamPrimed, w.stream.truth[forms-1]/streamDomains+1, streamEpochs, len(w.ingested)))
	return o, nil
}

func (w *statefulWorkload) precomputed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, lc := range w.lives {
		if lc != nil && lc.ready {
			n++
		}
	}
	return n
}

// lifeStep returns the client's next lifecycle request.
func (w *statefulWorkload) lifeStep(d *daemon, st *clientState, mu *sync.Mutex) opFunc {
	lc, step := st.lc, st.step
	return func(ctx context.Context) (string, bool) {
		var (
			method, route, path string
			body                []byte
		)
		sess := d.base + "/v1/sessions/" + st.id
		switch {
		case step == 0:
			method, route, path, body = http.MethodPost, "/v1/sessions", d.base+"/v1/sessions", lc.create
		case step <= lifeSources:
			method, route, path, body = http.MethodPost, "/v1/sessions/{id}/sources", sess+"/sources", lc.adds[step-1]
		case step == lifeSources+1:
			method, route, path, body = http.MethodPut, "/v1/sessions/{id}/sources/{hash}", sess+"/sources/"+st.hashes[lifeUpdate], lc.update
		case step == lifeSources+2:
			method, route, path = http.MethodDelete, "/v1/sessions/{id}/sources/{hash}", sess+"/sources/"+st.hashes[lifeRemove]
		case step == lifeSources+3:
			method, route, path = http.MethodGet, "/v1/sessions/{id}/result", sess+"/result"
		default:
			method, route, path = http.MethodDelete, "/v1/sessions/{id}", sess
		}
		status, reply, err := call(ctx, d.client, method, path, body)
		ok := err == nil && status == http.StatusOK
		if ok {
			switch {
			case step == 0:
				var r struct {
					ID string `json:"id"`
				}
				ok = json.Unmarshal(reply, &r) == nil && r.ID != ""
				st.id = r.ID
			case step <= lifeSources:
				var r struct {
					Hash string `json:"hash"`
				}
				ok = json.Unmarshal(reply, &r) == nil && r.Hash == lc.hashes[step-1]
				st.hashes[step-1] = r.Hash
			case step == lifeSources+3:
				mu.Lock()
				w.results = append(w.results, lifeResult{st.j, reply})
				mu.Unlock()
			}
		}
		if !ok || step == lifeSteps-1 {
			st.step = -1 // a failed step abandons the lifecycle
		} else {
			st.step++
		}
		return route, ok
	}
}

// ingestStep returns the client's next /v1/ingest request: a fresh form
// from the shared stream cursor, or, every dupEvery-th time, a re-ingest
// of a random form this client already sent in the current epoch. It
// returns nil once the stream is exhausted.
func (w *statefulWorkload) ingestStep(d *daemon, st *clientState, mu *sync.Mutex) opFunc {
	var f int
	st.ingests++
	if len(st.sent) > 0 && st.ingests%dupEvery == 0 {
		f = st.sent[st.r.intn(len(st.sent))]
	} else {
		f = int(w.cursor.Add(1) - 1)
		if f >= len(w.stream.bodies) {
			return nil
		}
		if e := w.stream.truth[f] / streamDomains; e != st.sentEpoch {
			st.sent, st.sentEpoch = nil, e
		}
		st.sent = append(st.sent, f)
	}
	return func(ctx context.Context) (string, bool) {
		status, reply, err := call(ctx, d.client, http.MethodPost, d.base+"/v1/ingest", w.stream.bodies[f])
		if err != nil || status != http.StatusOK {
			return "/v1/ingest", false
		}
		mu.Lock()
		w.ingested = append(w.ingested, ingestReply{f, reply})
		mu.Unlock()
		return "/v1/ingest", true
	}
}

func (w *statefulWorkload) check(ctx context.Context, d *daemon, o *outcome) error {
	wrong := func(format string, args ...any) {
		o.wrong++
		o.failed++
		if o.wrong <= 3 {
			o.notes = append(o.notes, "wrong answer: "+fmt.Sprintf(format, args...))
		}
	}
	for _, r := range w.results {
		lc, err := w.life(r.j)
		if err != nil {
			return err
		}
		if !lc.ready {
			if lc.want, err = w.expectLife(r.j); err != nil {
				return err
			}
			lc.ready = true
		}
		if err := lc.want.check(r.body); err != nil {
			wrong("lifecycle %d result: %v", r.j, err)
		}
	}

	// Every ingest must report the form's own hash, and the discovered
	// partition must agree with the ground truth: no listed domain mixes
	// two true domains, no true domain is split over two listed ones,
	// and every form of the epoch in progress — whose domains are the
	// most recently used, so none was evicted — is listed. Earlier
	// epochs' domains may have been evicted whole under the daemon's
	// 64-domain cap.
	truth := make(map[string]int)
	lastEpoch := 0
	for f := 0; f < streamPrimed; f++ {
		truth[w.stream.hashes[f]] = w.stream.truth[f]
		lastEpoch = max(lastEpoch, w.stream.truth[f]/streamDomains)
	}
	for _, in := range w.ingested {
		var r struct {
			Assignments []struct {
				FormHash string `json:"formHash"`
				Domain   string `json:"domain"`
			} `json:"assignments"`
		}
		if json.Unmarshal(in.body, &r) != nil || len(r.Assignments) != 1 ||
			r.Assignments[0].FormHash != w.stream.hashes[in.form] || r.Assignments[0].Domain == "" {
			wrong("ingest of form %d: %.200s", in.form, in.body)
			continue
		}
		truth[w.stream.hashes[in.form]] = w.stream.truth[in.form]
		lastEpoch = max(lastEpoch, w.stream.truth[in.form]/streamDomains)
	}
	status, body, err := call(ctx, d.client, http.MethodGet, d.base+"/v1/domains/discovered", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("listing discovered domains: status %d: %v", status, err)
	}
	var listing struct {
		Domains []struct {
			ID    string   `json:"id"`
			Forms []string `json:"forms"`
		} `json:"domains"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return fmt.Errorf("decoding discovered domains: %w", err)
	}
	listed := make(map[int]string)    // true domain → discovered ID
	isListed := make(map[string]bool) // form hash
	for _, dom := range listing.Domains {
		groups := make(map[int]bool)
		for _, h := range dom.Forms {
			td, ok := truth[h]
			if !ok {
				wrong("domain %s lists form %s that was never ingested", dom.ID, h)
				continue
			}
			groups[td] = true
			isListed[h] = true
		}
		if len(groups) > 1 {
			wrong("domain %s mixes %d ground-truth domains", dom.ID, len(groups))
		}
		for td := range groups {
			if prev, dup := listed[td]; dup {
				wrong("ground-truth domain %d split over %s and %s", td, prev, dom.ID)
			}
			listed[td] = dom.ID
		}
	}
	missing := 0
	for h, td := range truth {
		if td/streamDomains == lastEpoch && !isListed[h] {
			missing++
		}
	}
	if missing > 0 {
		wrong("%d forms of the epoch in progress are missing from the discovered domains", missing)
	}
	o.notes = append(o.notes, fmt.Sprintf("%d live discovered domains list %d of the %d distinct forms ingested; %d lifecycle results checked",
		len(listing.Domains), len(isListed), len(truth), len(w.results)))
	o.closeLoop()
	return nil
}
