// Cross-run warm caching for the naming pipeline. Every table is a
// twogen two-generation cache; this file owns only the lexicon epoch, the
// label-ID assignment and the Stats mapping.
package naming

import (
	"math"
	"sync/atomic"

	"qilabel/internal/lexicon"
	"qilabel/internal/twogen"
)

// Default capacity bounds for a Warm cache. The label cap bounds interned
// analyses (a few hundred bytes each: ~tens of MiB worst case); the verdict
// cap bounds shared Relate entries (16 bytes each: ~16 MiB worst case).
const (
	DefaultWarmLabelCap   = 1 << 16
	DefaultWarmVerdictCap = 1 << 20
)

// DefaultWarmSolveCap bounds each of the three solve-family tables (group
// solves, isolated elections, per-node candidate derivations). Entries are
// heavier than verdicts — an outcome with its solutions — so the cap is
// smaller.
const DefaultWarmSolveCap = 1 << 14

// warmLabel is one interned label: its analysis and the stable ID Relate
// memo keys are built from. IDs are non-negative and never reissued within
// an epoch (the counter survives evictions), so a verdict keyed by two IDs
// can only ever mean one label pair.
type warmLabel struct {
	lw *labelWords
	id int32
}

// warmEpoch is the ID-keyed half of a Warm: the label intern table, the
// verdicts keyed by its IDs, and the ID counter. A reset installs a fresh
// epoch instead of clearing this one, so runs that resolved their IDs here
// keep a consistent ID space and verdict cache until they finish.
type warmEpoch struct {
	gen      uint64 // lexicon generation the contents belong to
	labels   *twogen.Table[string, warmLabel]
	verdicts *twogen.Sharded[Rel]
	nextID   atomic.Int64
}

// nodeEntry is one cached candidate-label derivation for a global internal
// node: the node's sorted descendant leaf set, the ranked candidates, the
// potential-label count, and the inference-rule tally the derivation
// produced. The slices are shared on reuse; downstream phases read them
// without mutating (the assignment phase copies entries before editing).
type nodeEntry struct {
	clusters   []string
	cands      []CandidateLabel
	potentials int
	counters   Counters
}

// WarmStats is a point-in-time snapshot of a Warm cache's counters.
type WarmStats struct {
	// LabelHits / LabelMisses count PrecomputeAnalysis-equivalent label
	// lookups answered from the intern table vs analyzed fresh.
	LabelHits   uint64
	LabelMisses uint64
	// LabelsEvicted counts interned analyses dropped by generation
	// rotation under the cap.
	LabelsEvicted uint64
	// LabelsInterned is the current intern-table population (both
	// generations).
	LabelsInterned int
	// VerdictHits / VerdictMisses count shared Relate-cache probes: one
	// per Relate call on a pair of analysis-table labels.
	VerdictHits   uint64
	VerdictMisses uint64
	// Verdicts is the current shared verdict population (both generations,
	// all shards).
	Verdicts int
	// SolveHits / SolveMisses count group solves and isolated-cluster
	// elections answered from the cache vs computed; Solves is the stored
	// population (groups + isolated).
	SolveHits   uint64
	SolveMisses uint64
	Solves      int
	// NodeHits / NodeMisses count per-node candidate derivations answered
	// from the cache vs computed; Nodes is the stored population.
	NodeHits   uint64
	NodeMisses uint64
	Nodes      int
	// EpochResets counts wholesale invalidations after a lexicon mutation
	// or an exhausted label-ID space.
	EpochResets uint64
}

// Warm is the cross-run cache bundle a long-lived handle (qilabel's
// Integrator) owns: a bounded intern table of label analyses, a sharded
// shared cache of Relate verdicts and the solve-family tables, all keyed
// under one lexicon epoch.
//
// Every cached fact is a pure function of (label(s), lexicon), so reuse can
// never change an outcome, only skip recomputing it — warm runs stay
// byte-identical to cold ones. Staleness is handled by epoch: the Warm
// snapshots lexicon.Generation and drops everything when it moves.
//
// A Warm is safe for concurrent use. Workers probe the shared verdict
// shards directly for table-label pairs; see Semantics.Relate.
type Warm struct {
	lex *lexicon.Lexicon
	ep  atomic.Pointer[warmEpoch]

	// Solve-family caches, keyed by content signatures (groupSignature /
	// isolatedSignature, plus the node signature RunContext builds): a
	// solve is a pure function of what the signature serializes and the
	// lexicon epoch.
	groups   *twogen.Table[string, groupEntry]
	isolated *twogen.Table[string, isolatedEntry]
	nodes    *twogen.Table[string, nodeEntry]

	epochResets atomic.Uint64
}

// NewWarm creates a warm cache over the given lexicon (nil: the embedded
// default), sized by the DefaultWarm*Cap constants.
func NewWarm(lex *lexicon.Lexicon) *Warm {
	if lex == nil {
		lex = lexicon.Default()
	}
	w := &Warm{
		lex:      lex,
		groups:   twogen.NewTable[string, groupEntry](DefaultWarmSolveCap),
		isolated: twogen.NewTable[string, isolatedEntry](DefaultWarmSolveCap),
		nodes:    twogen.NewTable[string, nodeEntry](DefaultWarmSolveCap),
	}
	w.ep.Store(&warmEpoch{
		gen:      lex.Generation(),
		labels:   twogen.NewTable[string, warmLabel](DefaultWarmLabelCap),
		verdicts: twogen.NewSharded[Rel](DefaultWarmVerdictCap),
	})
	return w
}

// Lexicon returns the lexicon the warm cache is bound to.
func (w *Warm) Lexicon() *lexicon.Lexicon { return w.lex }

// epoch returns the current ID-keyed tables, first dropping every cached
// fact if the lexicon mutated since they were filled. Mutating the lexicon
// concurrently with runs is outside the documented contract (as for
// Semantics); this check makes the sequential mutate-then-integrate
// pattern correct.
func (w *Warm) epoch() *warmEpoch {
	ep := w.ep.Load()
	if g := w.lex.Generation(); ep.gen != g {
		w.renew(ep, g)
		ep = w.ep.Load()
	}
	return ep
}

// renew replaces ep with fresh ID-keyed tables for lexicon generation gen,
// unless a concurrent caller already replaced it; a generation change also
// drops the solve-family tables.
func (w *Warm) renew(ep *warmEpoch, gen uint64) {
	fresh := &warmEpoch{gen: gen, labels: ep.labels.Renew(), verdicts: ep.verdicts.Renew()}
	if !w.ep.CompareAndSwap(ep, fresh) {
		return
	}
	if gen != ep.gen {
		w.groups.Reset()
		w.isolated.Reset()
		w.nodes.Reset()
	}
	w.epochResets.Add(1)
}

// Analysis builds the per-run label-analysis table for the given labels,
// interning analyses through the warm cache: labels this handle has already
// seen are shared (no tokenize/stem/lookup work), labels never seen are
// analyzed once and interned. The returned Analysis is a plain immutable
// table — downstream workers are oblivious to where its entries came from.
//
// All IDs of one table come from one epoch, whose verdict cache the table
// keeps: when that epoch's ID space runs out, a fresh epoch is installed
// and every label is resolved again, so no ID is ever issued twice to the
// labels one run holds.
func (w *Warm) Analysis(labels []string) *Analysis {
	ep := w.epoch()
	a := &Analysis{
		lex:      w.lex,
		byLabel:  make(map[string]*labelWords, len(labels)),
		ids:      make(map[string]int32, len(labels)),
		verdicts: ep.verdicts,
	}
	var misses []string
	for _, l := range labels {
		if _, ok := a.byLabel[l]; ok {
			continue
		}
		if e, ok := ep.labels.Get(l); ok {
			a.byLabel[l], a.ids[l] = e.lw, e.id
			continue
		}
		a.byLabel[l] = nil // dedup marker; filled below
		misses = append(misses, l)
	}
	if len(misses) == 0 {
		return a
	}
	n := int64(len(misses))
	base := ep.nextID.Add(n) - n
	if base+n > math.MaxInt32+1 {
		w.renew(ep, ep.gen)
		return w.Analysis(labels)
	}
	// A concurrent run may have interned some of the same labels meanwhile;
	// its entry wins so every run shares one canonical analysis and ID per
	// label.
	for i, l := range misses {
		e, _ := ep.labels.GetOrPut(l, warmLabel{lw: analyzeLabel(w.lex, l), id: int32(base) + int32(i)})
		a.byLabel[l], a.ids[l] = e.lw, e.id
	}
	return a
}

// Stats snapshots the cache counters and populations.
func (w *Warm) Stats() WarmStats {
	ep := w.ep.Load()
	labels, verdicts := ep.labels.Stats(), ep.verdicts.Stats()
	groups, isolated, nodes := w.groups.Stats(), w.isolated.Stats(), w.nodes.Stats()
	return WarmStats{
		LabelHits:      labels.Hits,
		LabelMisses:    labels.Misses,
		LabelsEvicted:  labels.Evicted,
		LabelsInterned: labels.Len,
		VerdictHits:    verdicts.Hits,
		VerdictMisses:  verdicts.Misses,
		Verdicts:       verdicts.Len,
		SolveHits:      groups.Hits + isolated.Hits,
		SolveMisses:    groups.Misses + isolated.Misses,
		Solves:         groups.Len + isolated.Len,
		NodeHits:       nodes.Hits,
		NodeMisses:     nodes.Misses,
		Nodes:          nodes.Len,
		EpochResets:    w.epochResets.Load(),
	}
}
