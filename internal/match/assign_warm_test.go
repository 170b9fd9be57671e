package match

import (
	"context"
	"fmt"
	"testing"

	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// incrementalCorpus generates a synthetic domain and strips the cluster
// annotations so the matcher has real work to do.
func incrementalCorpus(t *testing.T, seed uint64, sources int) []*schema.Tree {
	t.Helper()
	trees, err := synth.Generate(synth.Config{
		Seed:    seed,
		Domain:  fmt.Sprintf("inc%d", seed),
		Sources: sources,
		Perturb: synth.Perturb{SynonymSwap: 0.4, Noise: 0.3, Dropout: 0.2, Reorder: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		for _, leaf := range tr.Leaves() {
			leaf.Cluster = ""
		}
	}
	return trees
}

func cloneTrees(trees []*schema.Tree) []*schema.Tree {
	out := make([]*schema.Tree, len(trees))
	for i, tr := range trees {
		out[i] = tr.Clone()
	}
	return out
}

func assertSameAssignment(t *testing.T, step string, a, b []*schema.Tree) {
	t.Helper()
	for i := range a {
		la, lb := a[i].Leaves(), b[i].Leaves()
		if len(la) != len(lb) {
			t.Fatalf("%s: tree %d leaf count %d vs %d", step, i, len(la), len(lb))
		}
		for j := range la {
			if la[j].Cluster != lb[j].Cluster {
				t.Fatalf("%s: tree %d leaf %d (%q): cluster %q vs %q",
					step, i, j, la[j].Label, la[j].Cluster, lb[j].Cluster)
			}
		}
	}
}

// TestAssignIncrementalEquivalence pins the warm matcher's contract: over
// a source set that grows source by source, the way a delta session feeds
// it, AssignContext produces the exact cluster assignment of a cold run
// when it reads block keys and pair verdicts from a Warm shared across the
// steps, and again when it replays the whole assignment by WarmKey.
func TestAssignIncrementalEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			trees := incrementalCorpus(t, seed, 6)
			w := NewWarm(nil, 0)
			ctx := context.Background()
			for n := 1; n <= len(trees); n++ {
				cold := cloneTrees(trees[:n])
				nc, err := AssignContext(ctx, cold, Options{})
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("seed%d-n%d", seed, n)
				for _, step := range []struct {
					name string
					opts Options
				}{
					{"warm", Options{Warm: w}},
					{"first keyed", Options{Warm: w, WarmKey: key}},
					{"replay", Options{Warm: w, WarmKey: key}},
				} {
					before := w.Stats()
					got := cloneTrees(trees[:n])
					nw, err := AssignContext(ctx, got, step.opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("n=%d %s", n, step.name)
					if nw != nc {
						t.Fatalf("%s: %d clusters vs %d cold", label, nw, nc)
					}
					assertSameAssignment(t, label, got, cold)
					after := w.Stats()
					if step.name == "replay" && after.AssignHits != before.AssignHits+1 {
						t.Fatalf("%s: whole-corpus assignment not replayed: %+v", label, after)
					}
					// From the third source on, the pairs between earlier
					// sources were evaluated by an earlier step.
					if step.name == "warm" && n > 2 && after.PairHits == before.PairHits {
						t.Fatalf("%s: no pair verdict answered from the warm cache", label)
					}
				}
			}
		})
	}
}

// TestAssignWarmReuse: re-running over unchanged content answers every
// block key and pair verdict from the warm cache.
func TestAssignWarmReuse(t *testing.T) {
	trees := incrementalCorpus(t, 7, 5)
	w := NewWarm(nil, 0)
	ctx := context.Background()
	if _, err := AssignContext(ctx, cloneTrees(trees), Options{Warm: w}); err != nil {
		t.Fatal(err)
	}
	first := w.Stats()
	if first.KeyMisses == 0 || first.PairMisses == 0 {
		t.Fatalf("cold run did no fresh work: %+v", first)
	}
	if _, err := AssignContext(ctx, cloneTrees(trees), Options{Warm: w}); err != nil {
		t.Fatal(err)
	}
	second := w.Stats()
	if second.KeyMisses != first.KeyMisses || second.PairMisses != first.PairMisses {
		t.Fatalf("warm run recomputed: cold %+v, after warm %+v", first, second)
	}
	// Every candidate pair of the warm run is a hit. The cold run probed
	// the same pairs, some already answered within the run (equal-content
	// fields share a verdict key), so the warm hits must equal every probe
	// of the cold run.
	if got, want := second.PairHits-first.PairHits, first.PairHits+first.PairMisses; got != want {
		t.Fatalf("warm run answered %d pairs from cache, cold run probed %d", got, want)
	}
	if got, want := second.KeyHits-first.KeyHits, first.KeyHits+first.KeyMisses; got != want {
		t.Fatalf("warm run answered %d block keys from cache, cold run probed %d", got, want)
	}
}
