// Cross-run warm caching for the matcher. One Warm, owned by a long-lived
// Integrator, serves every run on that handle — one-shot integrations and
// delta-session operations alike, concurrently — with two pure facts (a
// field's block keys, a pair's match verdict) cached under field-content
// keys, plus whole-corpus assignments. Every table is a twogen
// two-generation cache; this file owns only the lexicon epoch, the
// content-ID assignment and the Stats mapping. A session that adds one
// source to a seen set therefore re-evaluates only the pairs the new
// source's fields take part in.
package match

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"qilabel/internal/lexicon"
	"qilabel/internal/twogen"
)

// contentKey serializes exactly the field content the similarity signals
// read: the trimmed label and the normalized (case-folded, trimmed,
// deduplicated) instance value set, sorted for stability. Fields with
// equal content keys receive identical verdicts against any third field.
func contentKey(f *fieldInfo) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(len(f.label)))
	b.WriteByte(':')
	b.WriteString(f.label)
	vals := make([]string, 0, len(f.inst))
	for v := range f.inst {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	for _, v := range vals {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// Default capacity bounds for a matcher Warm cache. The key cap bounds
// remembered field contents (block keys plus a stable ID each); the pair
// cap bounds match verdicts (one byte of payload per 8-byte key); the
// assign cap bounds remembered whole-corpus assignments.
const (
	DefaultWarmKeyCap    = 1 << 16
	DefaultWarmPairCap   = 1 << 20
	DefaultWarmAssignCap = 1 << 10
)

// warmKey is one remembered field content: its block keys and the stable
// ID verdict keys are built from. IDs are never reissued within an epoch
// (the counter survives evictions), so a verdict keyed by two IDs can only
// ever mean one content pair.
type warmKey struct {
	keys []string
	id   int32
}

// warmEpoch is the ID-keyed half of a Warm: the content table, the
// verdicts keyed by its IDs, and the ID counter. A reset installs a fresh
// epoch instead of clearing this one, so a run that resolved its IDs here
// keeps a consistent ID space and verdict cache until it finishes.
type warmEpoch struct {
	gen    uint64 // lexicon generation the contents belong to
	keys   *twogen.Table[string, warmKey]
	pairs  *twogen.Sharded[bool]
	nextID atomic.Int64
}

// assignEntry is one cached whole-corpus assignment: the cluster name of
// every leaf in canonical enumeration order, and the cluster count.
type assignEntry struct {
	names []string
	n     int
}

// WarmStats is a point-in-time snapshot of a matcher Warm cache.
type WarmStats struct {
	// KeyHits / KeyMisses count field contents whose block keys were
	// answered from the cache vs derived fresh.
	KeyHits   uint64
	KeyMisses uint64
	// PairHits / PairMisses count candidate pairs answered from the verdict
	// cache vs evaluated by matchFields.
	PairHits   uint64
	PairMisses uint64
	// Keys / Pairs are the current populations (both generations).
	Keys  int
	Pairs int
	// AssignHits / AssignMisses count whole-corpus assignment probes
	// (keyed by Options.WarmKey) answered from the cache vs matched in
	// full; Assigns is the population.
	AssignHits   uint64
	AssignMisses uint64
	Assigns      int
	// EpochResets counts wholesale invalidations after a lexicon mutation
	// or an exhausted content-ID space.
	EpochResets uint64
}

// Warm caches the matcher's two pure per-content facts across runs: the
// block keys of a field content (trimmed label + normalized instance set)
// and the match verdict of a content pair under a fixed threshold. Both are
// pure functions of (content, lexicon, threshold), so reuse can never
// change an assignment, only skip recomputing it.
//
// Invalidation mirrors naming.Warm: a lexicon-epoch check drops everything
// (verdicts included, whose ID keys would otherwise dangle after the ID
// counter restarts) when the lexicon mutates.
//
// A Warm is safe for concurrent use; one Warm serves one (lexicon,
// threshold) configuration — AssignContext ignores it on a mismatch.
type Warm struct {
	lex        *lexicon.Lexicon
	minOverlap float64
	ep         atomic.Pointer[warmEpoch]

	// Whole-corpus assignment cache, keyed by Options.WarmKey (the caller's
	// fingerprint of the exact canonical source content plus every
	// assignment-affecting option). A hit replays the leaf->cluster vector
	// and skips the pairwise pass entirely; the content-keyed tables above
	// still accelerate misses.
	assigns *twogen.Table[string, assignEntry]

	epochResets atomic.Uint64
}

// NewWarm creates a matcher warm cache over the given lexicon (nil: the
// embedded default) and instance-overlap threshold (non-positive: the
// matcher's 0.5 default), sized by the DefaultWarm*Cap constants.
func NewWarm(lex *lexicon.Lexicon, minOverlap float64) *Warm {
	if lex == nil {
		lex = lexicon.Default()
	}
	if minOverlap <= 0 {
		minOverlap = 0.5
	}
	w := &Warm{
		lex:        lex,
		minOverlap: minOverlap,
		assigns:    twogen.NewTable[string, assignEntry](DefaultWarmAssignCap),
	}
	w.ep.Store(&warmEpoch{
		gen:   lex.Generation(),
		keys:  twogen.NewTable[string, warmKey](DefaultWarmKeyCap),
		pairs: twogen.NewSharded[bool](DefaultWarmPairCap),
	})
	return w
}

// epoch returns the current ID-keyed tables, first dropping every cached
// fact if the lexicon mutated since they were filled (the sequential
// mutate-then-integrate pattern; mutating concurrently with runs is
// outside the documented contract).
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
// drops the assignment table.
func (w *Warm) renew(ep *warmEpoch, gen uint64) {
	fresh := &warmEpoch{gen: gen, keys: ep.keys.Renew(), pairs: ep.pairs.Renew()}
	if !w.ep.CompareAndSwap(ep, fresh) {
		return
	}
	if gen != ep.gen {
		w.assigns.Reset()
	}
	w.epochResets.Add(1)
}

// resolve returns the block keys and stable content ID of every field,
// deriving keys only for contents no earlier run interned, and the epoch
// whose pair cache the IDs key into. All IDs come from that one epoch:
// when its ID space runs out, a fresh epoch is installed and every field
// is resolved again, so no ID is ever issued twice to the contents one run
// holds. A concurrent run may intern the same content meanwhile; the first
// insert wins so every run shares one ID per content.
func (w *Warm) resolve(fields []fieldInfo, derive func(*fieldInfo) []string) (*warmEpoch, [][]string, []int32) {
	ep := w.epoch()
	keys := make([][]string, len(fields))
	ids := make([]int32, len(fields))
	for i := range fields {
		ck := contentKey(&fields[i])
		e, ok := ep.keys.Get(ck)
		if !ok {
			id := ep.nextID.Add(1) - 1
			if id > math.MaxInt32 {
				w.renew(ep, ep.gen)
				return w.resolve(fields, derive)
			}
			e, _ = ep.keys.GetOrPut(ck, warmKey{keys: derive(&fields[i]), id: int32(id)})
		}
		keys[i], ids[i] = e.keys, e.id
	}
	return ep, keys, ids
}

// pairIDKey builds the order-independent verdict key of two content IDs
// (matchFields is symmetric).
func pairIDKey(a, b int32) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Stats snapshots the cache counters and populations.
func (w *Warm) Stats() WarmStats {
	ep := w.ep.Load()
	keys, pairs, assigns := ep.keys.Stats(), ep.pairs.Stats(), w.assigns.Stats()
	return WarmStats{
		KeyHits:      keys.Hits,
		KeyMisses:    keys.Misses,
		PairHits:     pairs.Hits,
		PairMisses:   pairs.Misses,
		Keys:         keys.Len,
		Pairs:        pairs.Len,
		AssignHits:   assigns.Hits,
		AssignMisses: assigns.Misses,
		Assigns:      assigns.Len,
		EpochResets:  w.epochResets.Load(),
	}
}
