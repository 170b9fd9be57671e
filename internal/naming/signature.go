// Content signatures of the naming passes' cacheable units. A group solve,
// an isolated-cluster election and a per-node candidate derivation are pure
// functions of the content their signature serializes, so the Warm cache
// can answer any run whose unit serializes identically — whether the run
// re-integrates a seen corpus, extends it by one source, or shares only
// part of its vocabulary:
//
//   - SolveGroup reads the group relation's tuples and, through the LI 7
//     value-label drop, every member of every cluster (including unlabeled
//     members, whose instances can demote a sibling's label to a data
//     value). The signature therefore serializes the full member content
//     of each cluster plus the tuple sequence — but NOT the cluster names,
//     which the matcher renumbers globally on any source change and which
//     the solver never reads.
//   - LabelIsolated reads one cluster's member content.
//
// Downstream phases read a reused GroupOutcome only through its Solutions,
// Partitions and Relation.Tuples; outcomeFor rebinds Relation.Clusters to
// the current run's cluster objects so reports stay self-consistent.

package naming

import (
	"strconv"
	"strings"

	"qilabel/internal/cluster"
)

// groupEntry stores one solved group: the outcome and the inference-rule
// tally the solve produced. The outcome's Relation still references the
// clusters of the run that solved it; outcomeFor rebinds it before reuse.
type groupEntry struct {
	outcome  *GroupOutcome
	counters Counters
}

// isolatedEntry stores one isolated-cluster election.
type isolatedEntry struct {
	label    string
	counters Counters
}

// outcomeFor returns the stored outcome rebound to the current run's
// cluster objects: a shallow copy of the outcome with a shallow copy of
// its relation whose Clusters field points at the live group. The tuples,
// solutions and partitions are shared with the stored outcome — all
// effectively immutable after the solve.
func (e groupEntry) outcomeFor(group []*cluster.Cluster) *GroupOutcome {
	out := *e.outcome
	rel := *e.outcome.Relation
	rel.Clusters = group
	out.Relation = &rel
	return &out
}

// sigString appends a length-prefixed string, so no two distinct content
// sequences serialize to the same signature by concatenation.
func sigString(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// sigMembers serializes a cluster's full member content: interface, label
// and instance list of every member, in member order. Cluster names are
// deliberately excluded: the matcher renumbers clusters globally on any
// source change, and no solve reads a name.
func sigMembers(b *strings.Builder, c *cluster.Cluster) {
	b.WriteByte('c')
	b.WriteString(strconv.Itoa(len(c.Members)))
	for _, m := range c.Members {
		sigString(b, m.Interface)
		sigString(b, m.Leaf.Label)
		b.WriteString(strconv.Itoa(len(m.Leaf.Instances)))
		for _, v := range m.Leaf.Instances {
			sigString(b, v)
		}
	}
}

// sigOptions serializes the solver options a solve depends on.
func sigOptions(b *strings.Builder, opts SolverOptions) {
	b.WriteByte('o')
	b.WriteString(strconv.Itoa(int(opts.maxLevel())))
	if opts.UseInstances {
		b.WriteByte('i')
	} else {
		b.WriteByte('-')
	}
}

// groupSignature derives the content key of one group solve: solver
// options, each cluster's member content, and the relation's tuple
// sequence (the tuple *order* follows the global interface order, which
// member content alone does not determine).
func groupSignature(group []*cluster.Cluster, rel *cluster.Relation, opts SolverOptions) string {
	var b strings.Builder
	b.WriteByte('g')
	sigOptions(&b, opts)
	for _, c := range group {
		sigMembers(&b, c)
	}
	b.WriteByte('t')
	b.WriteString(strconv.Itoa(len(rel.Tuples)))
	for _, t := range rel.Tuples {
		sigString(&b, t.Interface)
		for _, l := range t.Labels {
			sigString(&b, l)
		}
	}
	return b.String()
}

// isolatedSignature derives the content key of one isolated-cluster
// election.
func isolatedSignature(c *cluster.Cluster, opts SolverOptions) string {
	var b strings.Builder
	b.WriteByte('s')
	sigOptions(&b, opts)
	sigMembers(&b, c)
	return b.String()
}
