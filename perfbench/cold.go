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
	"qilabel/internal/synth"
)

// integrate-cold: a closed loop of conns clients, each POSTing a seeded
// synthetic source set no earlier request carried, so every operation
// misses the result cache and runs validate, match, merge and naming.

// coldShape is one cell of the fixed shape mix.
type coldShape struct {
	sources, concepts int
	matcher           bool
}

// coldShapes is cycled in order, so every run sees the same mix whatever
// the seed: 8–32 sources × 12–24 concepts, the matcher on for half.
var coldShapes = []coldShape{
	{8, 12, false}, {16, 16, true}, {24, 20, false}, {32, 24, true},
	{8, 12, true}, {16, 16, false}, {24, 20, true}, {32, 24, false},
}

// smallSet generates entry j of a labeled sequence of small synthetic
// sets: synth.Preset("small") (8 sources × 12 concepts) seeded by
// (seed, label, j).
func smallSet(seed uint64, label string, j int) ([]*qilabel.Tree, error) {
	cfg, err := synth.Preset("small")
	if err != nil {
		return nil, err
	}
	cfg.Seed = derive(seed, label, j)
	cfg.Domain = fmt.Sprintf("%s%d", label, j)
	return synth.Generate(cfg)
}

// coldSet generates input i of a labeled integrate-cold sequence ("cold"
// for the timed window, "prime" for priming): the shape of cell i of the
// mix, the perturbation profile of synth.Preset, content seeded by (seed,
// label, i). The domain name carries label and i, so no two inputs are
// the same source set.
func coldSet(seed uint64, label string, i int) ([]*qilabel.Tree, coldShape, error) {
	shape := coldShapes[i%len(coldShapes)]
	cfg, err := synth.Preset("small")
	if err != nil {
		return nil, shape, err
	}
	cfg.Seed = derive(seed, label, i)
	cfg.Domain = fmt.Sprintf("%s%d", label, i)
	cfg.Sources, cfg.Concepts = shape.sources, shape.concepts
	trees, err := synth.Generate(cfg)
	return trees, shape, err
}

type wireOptions struct {
	Matcher bool `json:"matcher,omitempty"`
}

func integrateBody(trees []*qilabel.Tree, matcher bool) ([]byte, error) {
	return json.Marshal(struct {
		Sources []*qilabel.Tree `json:"sources"`
		Options wireOptions     `json:"options"`
	}{trees, wireOptions{matcher}})
}

// integrators holds one warm Integrator per matcher setting, configured
// exactly as qilabeld configures its own for optionless requests.
type integrators [2]*qilabel.Integrator

func newIntegrators(observer func(qilabel.StageEvent)) (integrators, error) {
	var igs integrators
	for i := range igs {
		ig, err := qilabel.NewIntegrator(qilabel.Config{UseMatcher: i == 1, Observer: observer})
		if err != nil {
			return igs, err
		}
		igs[i] = ig
	}
	return igs, nil
}

func (igs integrators) of(matcher bool) *qilabel.Integrator {
	if matcher {
		return igs[1]
	}
	return igs[0]
}

// coldItem is one input with its request body and, once computed, its
// expected answer.
type coldItem struct {
	body []byte
	want expected
}

// coldPrimeSets is how many fresh sets priming integrates: the default
// result LRU's capacity, so the daemon starts the window with a full
// cache and the heap that comes with it, as it runs for the rest of its
// life.
const coldPrimeSets = 128

type coldWorkload struct {
	seed        uint64
	igMu        sync.Mutex
	igs         integrators
	primeBodies [][]byte // priming request bodies, never sent in the window

	items   []*coldItem // the precomputed pool; index = position in the sequence
	next    atomic.Int64
	replies []coldReply
}

type coldReply struct {
	i    int
	body []byte
}

// build generates input i and its request body, and with expect also its
// expected answer, computed in-process.
func (w *coldWorkload) build(i int, expect bool) (*coldItem, error) {
	trees, shape, err := coldSet(w.seed, "cold", i)
	if err != nil {
		return nil, err
	}
	it := &coldItem{}
	if it.body, err = integrateBody(trees, shape.matcher); err != nil {
		return nil, err
	}
	if expect {
		ig := w.integrators().of(shape.matcher)
		res, err := ig.Integrate(trees)
		if err != nil {
			return nil, fmt.Errorf("integrating input %d in-process: %w", i, err)
		}
		if it.want, err = expectedOf(ig.CacheKey(trees), res); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// item returns input i: from the precomputed pool, or generated now when
// the window outran the pool (its answer is then computed after the
// window).
func (w *coldWorkload) item(i int) (*coldItem, error) {
	if i < len(w.items) {
		return w.items[i], nil
	}
	return w.build(i, false)
}

// prepare precomputes inputs and expected answers on conns workers for a
// quarter longer than the window. Building an input (generating it,
// encoding it and integrating it) costs about what the daemon spends on
// it, so the pool covers the window with room to spare; inputs past it
// are generated during the window (the report says how many) and checked
// after it.
func (w *coldWorkload) prepare(window time.Duration) error {
	for i := 0; i < coldPrimeSets; i++ {
		trees, shape, err := coldSet(w.seed, "prime", i)
		if err != nil {
			return err
		}
		body, err := integrateBody(trees, shape.matcher)
		if err != nil {
			return err
		}
		w.primeBodies = append(w.primeBodies, body)
	}
	deadline := time.Now().Add(window * 5 / 4)
	var (
		counter atomic.Int64
		wg      sync.WaitGroup
		errMu   sync.Mutex
		first   error
		built   = make(map[int]*coldItem)
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(counter.Add(1) - 1)
				it, err := w.build(i, true)
				errMu.Lock()
				built[i] = it
				if err != nil && first == nil {
					first = err
				}
				errMu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	// Workers take indices in order and finish what they take, so the
	// pool is the prefix 0..len(built)-1.
	w.items = make([]*coldItem, len(built))
	for i, it := range built {
		w.items[i] = it
	}
	// The warm caches grown here would only weigh on this process's
	// garbage collector during the window.
	w.igs = integrators{}
	return nil
}

// integrators returns the in-process Integrators, creating them on first
// use.
func (w *coldWorkload) integrators() integrators {
	w.igMu.Lock()
	defer w.igMu.Unlock()
	if w.igs[0] == nil {
		igs, err := newIntegrators(nil)
		if err != nil {
			panic(err) // the zero Config is always valid
		}
		w.igs = igs
	}
	return w.igs
}

func (w *coldWorkload) prime(ctx context.Context, d *daemon) error {
	return postAll(ctx, d, "/v1/integrate", w.primeBodies)
}

func (w *coldWorkload) run(ctx context.Context, d *daemon, window time.Duration) (*outcome, error) {
	var (
		mu     sync.Mutex
		genErr error
	)
	next := func(int) opFunc {
		i := int(w.next.Add(1) - 1)
		it, err := w.item(i)
		if err != nil {
			mu.Lock()
			genErr = err
			mu.Unlock()
			return nil
		}
		return func(ctx context.Context) (string, bool) {
			status, body, err := call(ctx, d.client, http.MethodPost, d.base+"/v1/integrate", it.body)
			ok := err == nil && status == http.StatusOK
			if ok {
				mu.Lock()
				w.replies = append(w.replies, coldReply{i, body})
				mu.Unlock()
			}
			return "/v1/integrate", ok
		}
	}
	samples, lags := closedLoop(ctx, conns, window, next)
	if genErr != nil {
		return nil, genErr
	}
	o := &outcome{samples: samples, lags: lags, attempted: len(samples), route: "/v1/integrate", window: window}
	for _, s := range samples {
		if s.err {
			o.failed++
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("inputs precomputed before launch: %d; sent: %d", len(w.items), len(samples)))
	return o, nil
}

func (w *coldWorkload) check(_ context.Context, _ *daemon, o *outcome) error {
	for _, r := range w.replies {
		it, err := w.item(r.i)
		if err != nil {
			return err
		}
		if r.i >= len(w.items) {
			if it, err = w.build(r.i, true); err != nil {
				return err
			}
		}
		if err := it.want.check(r.body); err != nil {
			o.wrong++
			o.failed++
			if o.wrong <= 3 {
				o.notes = append(o.notes, fmt.Sprintf("wrong answer for input %d: %v", r.i, err))
			}
		}
	}
	o.closeLoop()
	return nil
}
