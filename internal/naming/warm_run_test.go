package naming

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/merge"
	"qilabel/internal/schema"
)

// domainMerge builds a fresh merge result for one corpus domain. Run
// labels the merged tree in place, so every Run call needs its own.
func domainMerge(t *testing.T, domain string) *merge.Result {
	t.Helper()
	d, err := dataset.ByName(domain)
	if err != nil {
		t.Fatal(err)
	}
	trees := d.Generate()
	cluster.ExpandOneToMany(trees)
	m, err := cluster.FromTrees(trees)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := merge.Merge(trees, m)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// renderNaming serializes every observable of a naming result: the labeled
// tree, the classification, each group's relation/solution/report, the
// isolated labels and the rule counters.
func renderNaming(res *Result) string {
	var b strings.Builder
	var walk func(n *schema.Node, depth int)
	walk = func(n *schema.Node, depth int) {
		fmt.Fprintf(&b, "%s%q cluster=%q inst=%v\n",
			strings.Repeat(" ", depth), n.Label, n.Cluster, n.Instances)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(res.Tree.Root, 0)
	fmt.Fprintf(&b, "class=%v counters=%v\n", res.Class, res.Counters)
	for _, g := range res.Groups {
		chosen := "<nil>"
		if g.Chosen != nil {
			chosen = fmt.Sprintf("%v@%d consistent=%v repaired=%v",
				g.Chosen.Labels, g.Chosen.Level, g.Chosen.Consistent, g.Chosen.Repaired)
		}
		fmt.Fprintf(&b, "group %v root=%v tuples=%d solutions=%d chosen=%s\n",
			g.Clusters, g.IsRoot, len(g.Outcome.Relation.Tuples), len(g.Outcome.Solutions), chosen)
		for _, c := range g.Outcome.Relation.Clusters {
			fmt.Fprintf(&b, "  relcluster %s members=%d\n", c.Name, len(c.Members))
		}
	}
	fmt.Fprintf(&b, "isolated=%v\n", res.IsolatedLabels)
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, "node %q rule=%d assigned=%q consistent=%v promoted=%v cands=%d\n",
			n.Node.Label, n.Rule, n.Assigned, n.GroupConsistent, n.Promoted, len(n.Candidates))
	}
	return b.String()
}

// warmDelta is the change of a Warm's solve and node counters across one
// run.
type warmDelta struct {
	solveHits, solveMisses, nodeMisses uint64
}

// runWarm runs naming over a fresh merge of the domain with the given warm
// cache, requires the result to render as want, and returns the run's
// counter delta.
func runWarm(t *testing.T, domain, step, want string, w *Warm, opts Options) warmDelta {
	t.Helper()
	before := w.Stats()
	opts.Warm = w
	res, err := Run(domainMerge(t, domain), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderNaming(res); got != want {
		t.Fatalf("%s run diverges:\n--- warm\n%s--- cold\n%s", step, got, want)
	}
	after := w.Stats()
	return warmDelta{
		solveHits:   after.SolveHits - before.SolveHits,
		solveMisses: after.SolveMisses - before.SolveMisses,
		nodeMisses:  after.NodeMisses - before.NodeMisses,
	}
}

// TestRunMemoEquivalence pins the warm cache's per-unit memoization on
// every corpus domain: a Run answered from a Warm — by content signature,
// and by the positional WarmKey replay — is indistinguishable from a Run
// without one: tree labels, classification, group reports (with relations
// rebound to the live clusters), isolated labels, node reports and rule
// counters.
func TestRunMemoEquivalence(t *testing.T) {
	for _, d := range dataset.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			base, err := Run(domainMerge(t, d.Name), Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := renderNaming(base)
			w := NewWarm(nil)

			cold := runWarm(t, d.Name, "cold", want, w, Options{})
			if cold.solveMisses == 0 {
				t.Fatalf("cold run solved nothing: %+v", cold)
			}
			warm := runWarm(t, d.Name, "warm", want, w, Options{})
			if warm.solveMisses != 0 || warm.nodeMisses != 0 {
				t.Fatalf("warm run recomputed: %+v", warm)
			}
			if warm.solveHits != cold.solveHits+cold.solveMisses {
				t.Fatalf("warm run answered %d solves from cache, cold run probed %d",
					warm.solveHits, cold.solveHits+cold.solveMisses)
			}

			// The positional replay: the first keyed run aliases every unit
			// under the key, the second answers every unit from the aliases.
			runWarm(t, d.Name, "first keyed", want, w, Options{WarmKey: d.Name})
			replay := runWarm(t, d.Name, "replay", want, w, Options{WarmKey: d.Name})
			if replay.solveMisses != 0 || replay.nodeMisses != 0 {
				t.Fatalf("replay run missed: %+v", replay)
			}
		})
	}
}

// TestWarmRebindsRelation: a group outcome answered from the warm cache —
// by content signature or by positional replay — must reference the
// clusters of the run that reused it, not the run that solved it;
// otherwise reports would leak stale cluster objects across runs.
func TestWarmRebindsRelation(t *testing.T) {
	w := NewWarm(nil)
	if _, err := Run(domainMerge(t, "Airline"), Options{Warm: w}); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct{ name, key string }{
		{"signature", ""},
		{"first keyed", "airline"},
		{"replay", "airline"},
	} {
		before := w.Stats().SolveHits
		mr := domainMerge(t, "Airline")
		res, err := Run(mr, Options{Warm: w, WarmKey: step.key})
		if err != nil {
			t.Fatal(err)
		}
		if w.Stats().SolveHits == before {
			t.Fatalf("%s: no group was answered from the warm cache", step.name)
		}
		live := make(map[*cluster.Cluster]bool)
		for _, c := range mr.Mapping.Clusters {
			live[c] = true
		}
		for _, g := range res.Groups {
			for _, c := range g.Outcome.Relation.Clusters {
				if !live[c] {
					t.Fatalf("%s: group %v: relation references a cluster object from a previous run",
						step.name, g.Clusters)
				}
			}
		}
	}
}

// TestWarmStoresDetachedOutcomes: a cached solve holds only what reuse
// reads. After a keyed warm run over a corpus that forms groups, every
// entry reachable under that run's group keys — positional and content
// signature, root included — has a relation without clusters, so the
// cache pins none of the run's clusters, leaves or trees; every
// solve-table key is a fixed-size digest, not a serialized signature. A
// replay from those entries still renders byte for byte like a cold run.
func TestWarmStoresDetachedOutcomes(t *testing.T) {
	for _, table := range []any{NewWarm(nil).groups.Get, NewWarm(nil).isolated.Get, NewWarm(nil).nodes.Get} {
		k := reflect.TypeOf(table).In(0)
		if k.Kind() != reflect.Array || k.Len() != sha256.Size || k.Elem().Kind() != reflect.Uint8 {
			t.Fatalf("solve-table key type %v, want a [%d]byte digest", k, sha256.Size)
		}
	}

	cold, err := Run(domainMerge(t, "Airline"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderNaming(cold)

	w := NewWarm(nil)
	opts := Options{Warm: w, WarmKey: "airline"}
	mr := domainMerge(t, "Airline")
	if _, err := RunContext(context.Background(), mr, opts); err != nil {
		t.Fatal(err)
	}
	if len(mr.Groups) == 0 {
		t.Fatal("corpus formed no groups")
	}
	sopts := SolverOptions{MaxLevel: opts.MaxLevel, UseInstances: !opts.DisableInstances}
	ifaces := cluster.Interfaces(mr.Sources)
	hw := newSigHash()
	check := func(name string, group []*cluster.Cluster, i int) {
		rel := cluster.BuildRelation(group, ifaces)
		for _, key := range []sigKey{hw.cheapKey(opts.WarmKey, 'g', i), hw.groupSignature(group, rel, sopts)} {
			e, ok := w.groups.Get(key)
			if !ok {
				t.Fatalf("%s: no entry under the run's key", name)
			}
			if e.outcome.Relation.Clusters != nil {
				t.Fatalf("%s: stored outcome references %d clusters of the run that solved it",
					name, len(e.outcome.Relation.Clusters))
			}
		}
	}
	for i, g := range mr.Groups {
		check(fmt.Sprintf("group %d", i), g, i)
	}
	if len(mr.Root) > 0 {
		check("root group", mr.Root, -1)
	}

	replay, err := RunContext(context.Background(), domainMerge(t, "Airline"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderNaming(replay); got != want {
		t.Fatalf("replay from detached entries diverges:\n--- warm\n%s--- cold\n%s", got, want)
	}
}
