// Per-source label memo: the third layer of the warm engine. The intern
// cache (naming.Warm) amortizes analyzing a label; this memo amortizes
// *finding* the labels — re-submitted sources (batch dedupe misses, session
// rebuilds, overlapping corpora) skip the tree walk and per-occurrence
// dedup entirely and contribute their cached distinct-label list. The memo
// is a twogen two-generation table.
package delta

import (
	"strings"

	"qilabel/internal/schema"
	"qilabel/internal/twogen"
)

// DefaultSourceLabelCap bounds the trees a SourceLabelMemo remembers.
const DefaultSourceLabelCap = 4096

// SourceLabelMemo caches, per canonical tree hash, the distinct labels the
// source contributes to a run's analysis table (in first-appearance order,
// post 1:m expansion). The cached list is a pure function of the tree
// content the hash covers, so reuse cannot change which labels a run
// analyzes — only skip re-collecting them.
//
// The memo is safe for concurrent use. One memo must only ever see one
// UseMatcher setting (the label list depends on it); the Integrator owns
// exactly one memo per fixed configuration, which guarantees that.
type SourceLabelMemo struct {
	trees *twogen.Table[string, []string]
}

// NewSourceLabelMemo creates a memo bounded to DefaultSourceLabelCap trees.
func NewSourceLabelMemo() *SourceLabelMemo {
	return &SourceLabelMemo{trees: twogen.NewTable[string, []string](DefaultSourceLabelCap)}
}

// SourceLabelStats is a snapshot of the memo's counters.
type SourceLabelStats struct {
	Hits, Misses uint64
	Trees        int
}

// Stats snapshots the memo counters and population.
func (m *SourceLabelMemo) Stats() SourceLabelStats {
	st := m.trees.Stats()
	return SourceLabelStats{Hits: st.Hits, Misses: st.Misses, Trees: st.Len}
}

// labels returns the distinct labels of the (expanded) tree whose
// pre-expansion canonical hash is hash, from the memo when possible. The
// returned slice is shared and must not be mutated.
func (m *SourceLabelMemo) labels(t *schema.Tree, hash string, useMatcher bool) []string {
	if ls, ok := m.trees.Get(hash); ok {
		return ls
	}
	ls := treeLabels(t, useMatcher)
	m.trees.Put(hash, ls)
	return ls
}

// treeLabels collects the distinct labels one (expanded) source tree feeds
// the run's analysis table: raw node labels (the naming phases) plus, when
// the matcher runs, the trimmed leaf labels its similarity signals compare.
// First-appearance order is preserved so the cold path's dense analysis IDs
// come out identical to an unmemoized collection.
func treeLabels(t *schema.Tree, useMatcher bool) []string {
	var labels []string
	seen := make(map[string]struct{})
	add := func(l string) {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			labels = append(labels, l)
		}
	}
	t.Root.Walk(func(n *schema.Node) bool {
		if n.Label != "" {
			add(n.Label)
			if useMatcher && n.IsLeaf() {
				if tr := strings.TrimSpace(n.Label); tr != n.Label && tr != "" {
					add(tr)
				}
			}
		}
		return true
	})
	return labels
}
