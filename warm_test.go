package qilabel

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"qilabel/internal/synth"
)

// Warm-cache equivalence suite: an Integrator's cross-run caches (label
// interning, shared Relate verdicts, matcher block keys and pair verdicts,
// solve/node caches, whole-corpus replay keys) are pure accelerators, so a
// warm run must be byte-identical to a cold one — and to the committed
// golden corpus. These tests are meant to run under -race -cpu=1,4: the
// stress test below hammers one handle from 32 goroutines precisely to let
// the race detector see every cache path under contention.

// warmGoldenBytes serializes the compared facets of one result in the
// golden-corpus format, so domain runs can diff directly against
// testdata/golden/<domain>.json. It panics instead of failing the test so
// the stress test's worker goroutines can call it too.
func warmGoldenBytes(_ *testing.T, domain string, sources []*Tree, res *Result) []byte {
	data, err := json.MarshalIndent(goldenFile{
		Domain:  domain,
		Key:     CacheKey(sources),
		Class:   res.Class.String(),
		Labels:  res.Labels,
		Tree:    res.Tree.String(),
		Summary: res.Summary(),
	}, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// TestWarmEquivalence pins warm ≡ cold ≡ golden over the seven builtin
// domains, then warm ≡ cold over a sweep of synthetic corpora sharing one
// vocabulary (so later seeds hit analyses, verdicts and solves cached by
// earlier ones — the adversarial case for cross-corpus reuse).
func TestWarmEquivalence(t *testing.T) {
	for _, domain := range BuiltinDomains() {
		t.Run(domain, func(t *testing.T) {
			sources, err := BuiltinDomain(domain)
			if err != nil {
				t.Fatal(err)
			}
			coldIG, err := NewIntegrator(Config{DisableWarmCache: true})
			if err != nil {
				t.Fatal(err)
			}
			warmIG, err := NewIntegrator(Config{})
			if err != nil {
				t.Fatal(err)
			}
			coldRes, err := coldIG.Integrate(sources)
			if err != nil {
				t.Fatal(err)
			}
			cold := warmGoldenBytes(t, domain, sources, coldRes)
			// Three passes on one handle: the first fills the caches, the
			// second replays via content signatures and corpus keys, the
			// third re-replays (promotion paths).
			for pass := 1; pass <= 3; pass++ {
				res, err := warmIG.Integrate(sources)
				if err != nil {
					t.Fatal(err)
				}
				if got := warmGoldenBytes(t, domain, sources, res); !bytes.Equal(got, cold) {
					t.Fatalf("warm pass %d diverges from cold for %s:\nwarm:\n%s\ncold:\n%s", pass, domain, got, cold)
				}
			}
			golden, err := os.ReadFile(goldenPath(domain))
			if err != nil {
				t.Fatalf("reading golden file: %v", err)
			}
			if !bytes.Equal(cold, golden) {
				t.Errorf("%s output diverges from golden corpus", domain)
			}
		})
	}

	t.Run("synth", func(t *testing.T) {
		seeds := 200
		if testing.Short() {
			seeds = 20
		}
		base := synth.Config{Domain: "warm-eq", Sources: 5, Concepts: 9,
			GroupFanout: 3, Depth: 2, InstanceRatio: 0.5,
			Perturb: synth.Perturb{SynonymSwap: 0.3, NumberVary: 0.15, Noise: 0.15, HypernymLift: 0.1, Dropout: 0.1, Reorder: 0.2}}
		warmIG, err := NewIntegrator(Config{UseMatcher: true})
		if err != nil {
			t.Fatal(err)
		}
		coldIG, err := NewIntegrator(Config{UseMatcher: true, DisableWarmCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for seed := 0; seed < seeds; seed++ {
			cfg := base
			cfg.Seed = uint64(seed)
			sources, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			coldRes, err := coldIG.Integrate(sources)
			if err != nil {
				t.Fatalf("seed %d cold: %v", seed, err)
			}
			cold := warmGoldenBytes(t, "synth", sources, coldRes)
			for pass := 1; pass <= 2; pass++ {
				res, err := warmIG.Integrate(sources)
				if err != nil {
					t.Fatalf("seed %d warm pass %d: %v", seed, pass, err)
				}
				if got := warmGoldenBytes(t, "synth", sources, res); !bytes.Equal(got, cold) {
					t.Fatalf("seed %d warm pass %d diverges from cold:\nwarm:\n%s\ncold:\n%s", seed, pass, got, cold)
				}
			}
		}
		st := warmIG.WarmStats()
		if st.LabelHits == 0 || st.SolveHits == 0 {
			t.Errorf("synth sweep never hit the warm caches: %+v", st)
		}
	})
}

// TestWarmStress hammers one Integrator from 32 goroutines with four
// overlapping corpora (one vocabulary, stepped seeds): every concurrent
// warm result must match its cold reference byte for byte. A quarter of
// the goroutines run delta-session lifecycles instead of integrations, so
// sessions share the matcher and naming caches with each other and with
// one-shot runs. Run under -race, this drives every cache path — intern,
// verdict shards, solve tables, whole-corpus replay, generation rotation —
// under contention.
func TestWarmStress(t *testing.T) {
	cfg := synth.Config{Seed: 11, Domain: "warm-stress", Sources: 6, Concepts: 10,
		GroupFanout: 3, Depth: 2, InstanceRatio: 0.5,
		Perturb: synth.Perturb{SynonymSwap: 0.3, NumberVary: 0.15, Noise: 0.15, Dropout: 0.1, Reorder: 0.2}}
	corpora, err := synth.Corpus(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	coldIG, err := NewIntegrator(Config{UseMatcher: true, DisableWarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(corpora))
	for i, sources := range corpora {
		res, err := coldIG.Integrate(sources)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = warmGoldenBytes(t, "stress", sources, res)
	}

	ig, err := NewIntegrator(Config{UseMatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	iters := 8
	if testing.Short() {
		iters = 3
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				i := (g + k) % len(corpora)
				if g%4 == 3 {
					if err := stressSession(ig, coldIG, corpora[i]); err != nil {
						errs <- fmt.Errorf("goroutine %d iter %d corpus %d: %w", g, k, i, err)
						return
					}
					continue
				}
				res, err := ig.Integrate(corpora[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, k, err)
					return
				}
				if got := warmGoldenBytes(t, "stress", corpora[i], res); !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d iter %d corpus %d: warm result diverges from cold", g, k, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := ig.WarmStats()
	if st.LabelHits == 0 || st.VerdictHits+st.MatchPairHits == 0 {
		t.Errorf("stress run never hit the warm caches: %+v", st)
	}
}

// stressSession runs one session lifecycle over a corpus on the shared
// Integrator — add every source one at a time, remove the last, update the
// first to the removed one — and requires the final Result to equal a
// from-scratch integration of the session's sources on the cold handle.
func stressSession(ig, coldIG *Integrator, sources []*Tree) error {
	ctx := context.Background()
	sess := ig.NewSession()
	hashes := make([]string, len(sources))
	for j, src := range sources {
		h, err := sess.AddSource(ctx, src)
		if err != nil {
			return fmt.Errorf("add %d: %w", j, err)
		}
		hashes[j] = h
	}
	last := len(sources) - 1
	if err := sess.RemoveSource(ctx, hashes[last]); err != nil {
		return fmt.Errorf("remove: %w", err)
	}
	if _, err := sess.UpdateSource(ctx, hashes[0], sources[last]); err != nil {
		return fmt.Errorf("update: %w", err)
	}
	got, err := sess.Result()
	if err != nil {
		return err
	}
	final := sess.Sources()
	want, err := coldIG.Integrate(final)
	if err != nil {
		return err
	}
	if !bytes.Equal(warmGoldenBytes(nil, "stress", final, got), warmGoldenBytes(nil, "stress", final, want)) {
		return fmt.Errorf("session result diverges from a from-scratch integration")
	}
	return nil
}

// TestWarmEpochResetExactlyOnce pins the warm caches' invalidation
// contract the versioned-lexicon layer leans on: mutating the lexicon
// bumps its Generation, and the Integrator's warm layers reset exactly
// ONCE per bump — even when 32 goroutines observe the stale generation
// simultaneously — and never otherwise. (Registered registry versions are
// immutable, so under multi-tenant serving this counter stays at zero;
// see the server's hot-reload test.)
func TestWarmEpochResetExactlyOnce(t *testing.T) {
	sources, err := BuiltinDomain(BuiltinDomains()[0])
	if err != nil {
		t.Fatal(err)
	}
	lex := DefaultLexicon().Clone()
	ig, err := NewIntegrator(Config{Lexicon: lex})
	if err != nil {
		t.Fatal(err)
	}

	hammer := func() {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 32)
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ig.Integrate(sources); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	hammer()
	if r := ig.WarmStats().EpochResets; r != 0 {
		t.Fatalf("EpochResets = %d before any lexicon mutation, want 0", r)
	}

	// One bump, 32 concurrent observers: exactly one reset.
	lex.AddSynonyms("teleport", "blink")
	hammer()
	if r := ig.WarmStats().EpochResets; r != 1 {
		t.Fatalf("EpochResets = %d after one Generation bump, want exactly 1", r)
	}

	// Steady state stays steady; a second bump costs exactly one more.
	hammer()
	if r := ig.WarmStats().EpochResets; r != 1 {
		t.Fatalf("EpochResets = %d with no further mutation, want still 1", r)
	}
	lex.AddSynonyms("jaunt", "hop")
	hammer()
	if r := ig.WarmStats().EpochResets; r != 2 {
		t.Fatalf("EpochResets = %d after the second bump, want 2", r)
	}
}
