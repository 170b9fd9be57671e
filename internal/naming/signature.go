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
//
// A signature is never materialized: sigWriter streams its serialization
// into SHA-256, and the tables are keyed by the 32-byte digest. Neither
// the keys nor the stored entries reference a run's clusters, so its
// clusters, leaves and trees die with the run; a stored relation's tuples
// share only the leaves' instance lists.

package naming

import (
	"crypto/sha256"
	"hash"
	"strconv"

	"qilabel/internal/cluster"
)

// groupEntry stores one solved group: the outcome and the inference-rule
// tally the solve produced. The stored outcome is detached (see detach):
// its Relation has no Clusters, so the entry pins no cluster, member leaf
// or source tree of the run that solved it; outcomeFor rebinds the live
// group on every reuse.
type groupEntry struct {
	outcome  *GroupOutcome
	counters Counters
}

// isolatedEntry stores one isolated-cluster election.
type isolatedEntry struct {
	label    string
	counters Counters
}

// detach returns the entry to store for a fresh solve: a shallow copy of
// the outcome with a shallow copy of its relation whose Clusters is nil.
// The run that solved the group keeps its own, undetached outcome.
func detach(out *GroupOutcome, counters Counters) groupEntry {
	stored := *out
	rel := *out.Relation
	rel.Clusters = nil
	stored.Relation = &rel
	return groupEntry{outcome: &stored, counters: counters}
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

// sigKey keys the solve-family tables: the SHA-256 digest of a unit's
// serialized signature or of a cheap positional key. Two keys are equal
// exactly when the serializations are (up to a SHA-256 collision), so
// hits and misses are those of the serializations themselves.
type sigKey [sha256.Size]byte

// sigBufSize is the buffer through which a hashing sigWriter streams.
const sigBufSize = 512

// sigWriter writes the signature serialization. A writer from newSigHash
// streams the bytes into SHA-256 through a fixed buffer and yields the
// digest; the zero value accumulates the bytes instead, for the per-run
// fragments node signatures splice in.
type sigWriter struct {
	h   hash.Hash
	buf []byte
}

func newSigHash() *sigWriter {
	return &sigWriter{h: sha256.New(), buf: make([]byte, 0, sigBufSize)}
}

// reserve makes room for n more bytes, flushing a hashing writer's buffer
// when they would not fit.
func (w *sigWriter) reserve(n int) {
	if w.h != nil && len(w.buf)+n > cap(w.buf) {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *sigWriter) byte(c byte) {
	w.reserve(1)
	w.buf = append(w.buf, c)
}

func (w *sigWriter) int(n int) {
	w.reserve(20)
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
}

// raw writes s as is.
func (w *sigWriter) raw(s string) {
	for w.h != nil && len(w.buf)+len(s) > cap(w.buf) {
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.h.Write(w.buf[:cap(w.buf)])
		w.buf, s = w.buf[:0], s[n:]
	}
	w.buf = append(w.buf, s...)
}

// fragment returns and clears what an accumulating writer holds.
func (w *sigWriter) fragment() string {
	s := string(w.buf)
	w.buf = w.buf[:0]
	return s
}

// str writes a length-prefixed string, so no two distinct content
// sequences serialize to the same bytes by concatenation.
func (w *sigWriter) str(s string) {
	w.int(len(s))
	w.byte(':')
	w.raw(s)
}

// sum returns the digest of everything written since the last sum and
// resets the hashing writer for the next key.
func (w *sigWriter) sum() sigKey {
	w.h.Write(w.buf)
	var k sigKey
	copy(k[:], w.h.Sum(w.buf[:0]))
	w.h.Reset()
	w.buf = w.buf[:0]
	return k
}

// cheapKey is the digest of the positional key prefix|kind|i (prefix|g|root
// for i < 0, the root group): the corpus-fingerprint alias of one unit's
// outcome.
func (w *sigWriter) cheapKey(prefix string, kind byte, i int) sigKey {
	w.raw(prefix)
	w.byte('|')
	w.byte(kind)
	w.byte('|')
	if i < 0 {
		w.raw("root")
	} else {
		w.int(i)
	}
	return w.sum()
}

// members serializes a cluster's full member content: interface, label
// and instance list of every member, in member order. Cluster names are
// deliberately excluded: the matcher renumbers clusters globally on any
// source change, and no solve reads a name.
func (w *sigWriter) members(c *cluster.Cluster) {
	w.byte('c')
	w.int(len(c.Members))
	for _, m := range c.Members {
		w.str(m.Interface)
		w.str(m.Leaf.Label)
		w.int(len(m.Leaf.Instances))
		for _, v := range m.Leaf.Instances {
			w.str(v)
		}
	}
}

// options serializes the solver options a solve depends on.
func (w *sigWriter) options(opts SolverOptions) {
	w.byte('o')
	w.int(int(opts.maxLevel()))
	if opts.UseInstances {
		w.byte('i')
	} else {
		w.byte('-')
	}
}

// groupSignature derives the content key of one group solve: solver
// options, each cluster's member content, and the relation's tuple
// sequence (the tuple *order* follows the global interface order, which
// member content alone does not determine).
func (w *sigWriter) groupSignature(group []*cluster.Cluster, rel *cluster.Relation, opts SolverOptions) sigKey {
	w.byte('g')
	w.options(opts)
	for _, c := range group {
		w.members(c)
	}
	w.byte('t')
	w.int(len(rel.Tuples))
	for _, t := range rel.Tuples {
		w.str(t.Interface)
		for _, l := range t.Labels {
			w.str(l)
		}
	}
	return w.sum()
}

// isolatedSignature derives the content key of one isolated-cluster
// election.
func (w *sigWriter) isolatedSignature(c *cluster.Cluster, opts SolverOptions) sigKey {
	w.byte('s')
	w.options(opts)
	w.members(c)
	return w.sum()
}
