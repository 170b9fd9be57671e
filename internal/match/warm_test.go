package match

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qilabel/internal/schema"
	"qilabel/internal/twogen"
)

// TestWarmKeyCapBound: an adversarial stream of distinct field contents
// must never push the key table past its cap, and verdicts keyed by the
// interned IDs stay bounded by the pair cap.
func TestWarmKeyCapBound(t *testing.T) {
	const keyCap = 32
	const pairCap = 128
	w := NewWarm(nil, 0)
	ep := w.ep.Load()
	ep.keys = twogen.NewTable[string, warmKey](keyCap)
	ep.pairs = twogen.NewSharded[bool](pairCap)
	derived := 0
	derive := func(*fieldInfo) []string { derived++; return []string{"k"} }
	var ids []int32
	for i := 0; i < 500; i++ {
		f := []fieldInfo{{label: fmt.Sprintf("content-%d", i)}}
		_, _, id := w.resolve(f, derive)
		if derived != i+1 {
			t.Fatalf("distinct content %d reported as cached", i)
		}
		ids = append(ids, id[0])
		if st := w.Stats(); st.Keys > keyCap {
			t.Fatalf("after %d interns the key table holds %d, cap is %d", i+1, st.Keys, keyCap)
		}
	}
	// IDs are never reused within the epoch, even across evictions: a
	// verdict keyed by two IDs can only mean one content pair.
	seen := make(map[int32]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("ID %d issued twice within one epoch", id)
		}
		seen[id] = true
	}
	for i := 0; i+1 < len(ids); i++ {
		ep.pairs.Put(pairIDKey(ids[i], ids[i+1]), i%2 == 0)
		if st := w.Stats(); st.Pairs > pairCap {
			t.Fatalf("after %d verdicts the pair table holds %d, cap is %d", i+1, st.Pairs, pairCap)
		}
	}
	st := w.Stats()
	if st.KeyMisses != 500 {
		t.Errorf("KeyMisses = %d, want 500", st.KeyMisses)
	}
	if st.Keys == 0 || st.Pairs == 0 {
		t.Errorf("tables empty after adversarial load: %+v", st)
	}
}

// TestWarmAssignBound: the whole-corpus assignment table is bounded too.
func TestWarmAssignBound(t *testing.T) {
	w := NewWarm(nil, 0)
	for i := 0; i < DefaultWarmAssignCap*2; i++ {
		w.assigns.Put(fmt.Sprintf("corpus-%d|a|m", i), assignEntry{names: []string{"m_001"}, n: 1})
		if st := w.Stats(); st.Assigns > DefaultWarmAssignCap {
			t.Fatalf("assignment table holds %d, cap is %d", st.Assigns, DefaultWarmAssignCap)
		}
	}
	if e, ok := w.assigns.Get(fmt.Sprintf("corpus-%d|a|m", DefaultWarmAssignCap*2-1)); !ok || e.n != 1 {
		t.Fatal("newest assignment entry unreachable")
	}
}

// TestWarmIDExhaustion: a run whose fresh contents exhaust the content-ID
// space mid-run restarts on a fresh epoch instead of reissuing IDs its
// already-resolved contents hold, so its assignment — and the next run's —
// still equals a cold run's. Without that, "City" would take the ID the run
// already gave "Departure City" and inherit its verdict against C's
// "Departure City".
func TestWarmIDExhaustion(t *testing.T) {
	a := schema.NewTree("A", schema.NewField("Departure City", ""), schema.NewField("Adults", ""))
	b := schema.NewTree("B", schema.NewField("Zzz", ""), schema.NewField("City", ""))
	c := schema.NewTree("C", schema.NewField("Departure City", ""), schema.NewField("Children", ""))
	ctx := context.Background()
	w := NewWarm(nil, 0)
	if _, err := AssignContext(ctx, cloneTrees([]*schema.Tree{a}), Options{Warm: w}); err != nil {
		t.Fatal(err)
	}
	w.ep.Load().nextID.Store(math.MaxInt32) // one ID left
	trees := []*schema.Tree{a, b, c}
	cold := cloneTrees(trees)
	nc, err := AssignContext(ctx, cold, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"exhausting", "fresh epoch"} {
		got := cloneTrees(trees)
		nw, err := AssignContext(ctx, got, Options{Warm: w})
		if err != nil {
			t.Fatal(err)
		}
		if nw != nc {
			t.Fatalf("%s run: %d clusters vs %d cold", step, nw, nc)
		}
		assertSameAssignment(t, step+" run", got, cold)
	}
	if st := w.Stats(); st.EpochResets != 1 {
		t.Fatalf("EpochResets = %d, want 1", st.EpochResets)
	}
}
