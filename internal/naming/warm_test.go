package naming

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"qilabel/internal/twogen"
)

// TestWarmLabelCapBound: under an adversarial stream of distinct labels the
// intern table must respect its cap — the two-generation rotation evicts,
// the population never exceeds the cap, and analyses interned moments ago
// (the current generation) are still served.
func TestWarmLabelCapBound(t *testing.T) {
	const cap = 64
	w := NewWarm(nil)
	w.ep.Load().labels = twogen.NewTable[string, warmLabel](cap)
	for batch := 0; batch < 50; batch++ {
		labels := make([]string, 0, 16)
		for i := 0; i < 16; i++ {
			labels = append(labels, fmt.Sprintf("adversary %d-%d", batch, i))
		}
		if a := w.Analysis(labels); a == nil {
			t.Fatal("nil analysis")
		}
		if st := w.Stats(); st.LabelsInterned > cap {
			t.Fatalf("batch %d: %d labels interned, cap is %d", batch, st.LabelsInterned, cap)
		}
	}
	st := w.Stats()
	if st.LabelsEvicted == 0 {
		t.Fatalf("800 distinct labels through a cap of %d evicted nothing: %+v", cap, st)
	}
	if st.LabelMisses != 800 {
		t.Errorf("LabelMisses = %d, want 800 (every label distinct)", st.LabelMisses)
	}

	// Repeats of the most recent batch are hits, and hit entries survive
	// the next rotation (promotion keeps steadily referenced labels warm).
	last := []string{"adversary 49-0", "adversary 49-15"}
	w.Analysis(last)
	if st := w.Stats(); st.LabelHits == 0 {
		t.Errorf("repeat of current-generation labels missed: %+v", st)
	}
}

// TestWarmTableBound: the solve-family tables are bounded by their cap,
// promote old-generation hits across a rotation, and report their
// populations and counters through Stats.
func TestWarmTableBound(t *testing.T) {
	w := NewWarm(nil)
	w.groups = twogen.NewTable[sigKey, groupEntry](8)
	key := func(s string) sigKey { return sha256.Sum256([]byte(s)) }
	for i := 0; i < 100; i++ {
		w.groups.Put(key("k"+strconv.Itoa(i)), groupEntry{})
		if s := w.Stats().Solves; s > 8 {
			t.Fatalf("after %d stores the table holds %d entries, cap is 8", i+1, s)
		}
	}
	if _, ok := w.groups.Get(key("k99")); !ok {
		t.Fatal("newest entry unreachable")
	}
	// k92..k95 sit in the old generation. A touched one is promoted and
	// outlives the rotations that drop its untouched contemporaries.
	if _, ok := w.groups.Get(key("k93")); !ok {
		t.Fatal("old-generation entry unreachable after rotation")
	}
	for i := 0; i < 4; i++ {
		w.groups.Put(key("new"+strconv.Itoa(i)), groupEntry{})
	}
	if _, ok := w.groups.Get(key("k93")); !ok {
		t.Fatal("promoted entry evicted by the next rotation")
	}
	if _, ok := w.groups.Get(key("k92")); ok {
		t.Fatal("unreferenced old-generation entry survived two rotations")
	}
	if st := w.Stats(); st.SolveHits != 3 || st.SolveMisses != 1 {
		t.Fatalf("solve counters %+v, want 3 hits and 1 miss", st)
	}
}

// TestSigWriterStreamsSerialization: a hashing sigWriter's key is the
// SHA-256 of exactly the bytes an accumulating one builds, whatever the
// lengths around its buffer boundary, and successive keys are independent.
func TestSigWriterStreamsSerialization(t *testing.T) {
	hw := newSigHash()
	for _, n := range []int{0, 1, sigBufSize - 3, sigBufSize, sigBufSize + 1, 3*sigBufSize + 7} {
		long := strings.Repeat("x", n)
		var acc sigWriter
		for _, w := range []*sigWriter{&acc, hw} {
			w.byte('g')
			w.int(n)
			w.str(long)
			w.raw(long)
			w.str("tail")
		}
		if got, want := hw.sum(), sigKey(sha256.Sum256(acc.buf)); got != want {
			t.Fatalf("len %d: streamed key %x, want the digest of the serialization %x", n, got, want)
		}
	}
}

// TestWarmVerdictPopulation: promoting a verdict out of the old generation
// moves it rather than copying it, so the reported population is the number
// of distinct pairs cached. The three pairs share one shard (both ID halves
// equal), whose cap of 4 rotates on the third.
func TestWarmVerdictPopulation(t *testing.T) {
	w := NewWarm(nil)
	w.ep.Load().verdicts = twogen.NewSharded[Rel](4 * 64)
	labels := []string{"Departure City", "Return Date", "Adults"}
	s := w.Analysis(labels).Semantics()
	for _, l := range labels {
		s.Relate(l, l)
	}
	s.Relate(labels[0], labels[0]) // old-generation hit: promoted
	if st := w.Stats(); st.Verdicts != 3 || st.VerdictHits != 1 || st.VerdictMisses != 3 {
		t.Fatalf("3 distinct verdicts, 1 promotion: %+v", st)
	}
}

// TestWarmIDExhaustion: when the label-ID space runs out, the Warm starts a
// fresh epoch without reissuing an ID to a label that a run already holds —
// neither within the run that hits the limit nor against a run that
// resolved its IDs before it. Every verdict agrees with the reference.
func TestWarmIDExhaustion(t *testing.T) {
	w := NewWarm(nil)
	held := w.Analysis([]string{"Departure City", "City of Departure"})
	w.ep.Load().nextID.Store(math.MaxInt32)
	w.Analysis([]string{"Zzz"}) // takes the last ID
	labels := []string{"Return Date", "Adults", "Departure City"}
	a := w.Analysis(labels)
	if st := w.Stats(); st.EpochResets != 1 {
		t.Fatalf("EpochResets = %d, want 1", st.EpochResets)
	}
	seen := make(map[int32]string)
	for _, l := range labels {
		if prev, dup := seen[a.ids[l]]; dup {
			t.Fatalf("%q and %q share ID %d", prev, l, a.ids[l])
		}
		seen[a.ids[l]] = l
	}
	ref := NewSemanticsUnmemoized(nil)
	check := func(s *Semantics, labels []string) {
		for _, x := range labels {
			for _, y := range labels {
				if got, want := s.Relate(x, y), ref.Relate(x, y); got != want {
					t.Fatalf("Relate(%q,%q) = %v, reference says %v", x, y, got, want)
				}
			}
		}
	}
	check(a.Semantics(), labels)
	check(held.Semantics(), []string{"Departure City", "City of Departure"})
}
