package ssr

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/join"
	"repro/internal/weblog"
)

// FromAccessLog builds a Collection from a raw NCSA Common/Combined-format
// HTTP access log, one set of distinct request paths per client — exactly
// the preprocessing the paper applied to its web logs. Clients with fewer
// than minPages distinct pages are dropped (minPages <= 1 keeps everyone).
// The returned client list is aligned with the collection's sids.
func FromAccessLog(r io.Reader, minPages int) (*Collection, []string, error) {
	parsed, err := weblog.Parse(r, minPages)
	if err != nil {
		return nil, nil, err
	}
	if len(parsed.Clients) == 0 {
		return nil, nil, fmt.Errorf("ssr: no clients with >= %d pages in log (%d lines, %d malformed)",
			minPages, parsed.Lines, parsed.Malformed)
	}
	c := NewCollection()
	for _, pages := range parsed.Pages {
		c.Add(pages...)
	}
	return c, parsed.Clients, nil
}

// PairMatch is one similar pair from SimilarPairs, with A < B.
type PairMatch struct {
	A, B       int
	Similarity float64
}

// SimilarPairs returns every pair of collection sets with similarity at
// least threshold (a set-similarity self-join), sorted by descending
// similarity. Reported pairs are exact; a pair may be missed with the
// filter's false-negative probability at its similarity level.
func (ix *Index) SimilarPairs(threshold float64) ([]PairMatch, error) {
	if err := ix.requireNoDeletions("SimilarPairs"); err != nil {
		return nil, err
	}
	pairs, _, err := join.SelfJoin(ix.inner.Sets(), join.Options{
		Threshold: threshold,
		Tables:    24,
		MinHashes: ix.inner.Embedder().K(),
		Seed:      1,
	})
	if err != nil {
		return nil, err
	}
	out := make([]PairMatch, len(pairs))
	for i, p := range pairs {
		out[i] = PairMatch{A: int(p.A), B: int(p.B), Similarity: p.Similarity}
	}
	return out, nil
}

// ClusterResult is one leader cluster from Clusters.
type ClusterResult struct {
	// Leader is the sid the cluster grew from.
	Leader int
	// Members holds all member sids including the leader, ascending.
	Members []int
}

// Clusters groups the collection by similarity band using leader
// clustering (each unassigned set pulls in every unassigned set within
// [lo, hi] of it). Sets in no cluster of size >= 2 are omitted.
func (ix *Index) Clusters(lo, hi float64) ([]ClusterResult, error) {
	if err := ix.requireNoDeletions("Clusters"); err != nil {
		return nil, err
	}
	res, err := cluster.Leaders(ix.inner, ix.inner.Sets(), cluster.Options{Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	out := make([]ClusterResult, len(res.Clusters))
	for i, c := range res.Clusters {
		members := make([]int, len(c.Members))
		for j, m := range c.Members {
			members[j] = int(m)
		}
		out[i] = ClusterResult{Leader: int(c.Leader), Members: members}
	}
	return out, nil
}

// requireNoDeletions guards the bulk operations whose sid numbering would
// drift on a deleted-from index.
func (ix *Index) requireNoDeletions(op string) error {
	if ix.inner.NumAllocated() != ix.inner.Len() {
		return fmt.Errorf("ssr: %s requires an index without deletions (%d of %d sids live); rebuild first",
			op, ix.inner.Len(), ix.inner.NumAllocated())
	}
	return nil
}
