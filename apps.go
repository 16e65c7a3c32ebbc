package ssr

import (
	"cmp"
	"fmt"
	"io"
	"slices"

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

// SimilarPairs returns every pair of live sets with similarity at least
// threshold (a set-similarity self-join), sorted by descending similarity,
// then A, then B. It is one [threshold, 1] range query per live set, so
// every reported pair is exact, and a pair is missed only when the queries
// of both its sets miss it.
func (ix *Index) SimilarPairs(threshold float64) ([]PairMatch, error) {
	if !(threshold > 0 && threshold < 1) {
		return nil, fmt.Errorf("ssr: threshold must be in (0,1), got %g", threshold)
	}
	var out []PairMatch
	for a, s := range ix.inner.SetsBySID() {
		if s == nil {
			continue
		}
		matches, _, err := ix.query(*s, threshold, 1)
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			if m.SID != a {
				out = append(out, PairMatch{A: min(a, m.SID), B: max(a, m.SID), Similarity: m.Similarity})
			}
		}
	}
	slices.SortFunc(out, func(x, y PairMatch) int {
		return cmp.Or(cmp.Compare(y.Similarity, x.Similarity), cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	// A pair both of whose sets found it sits twice, side by side.
	return slices.Compact(out), nil
}

// ClusterResult is one leader cluster from Clusters.
type ClusterResult struct {
	// Leader is the sid the cluster grew from.
	Leader int
	// Members holds all member sids including the leader, ascending.
	Members []int
}

// Clusters groups the live sets by similarity band using leader
// clustering: in sid order, each unassigned set queries [lo, hi] and pulls
// in every unassigned set the query returns. Sets in no cluster of size
// >= 2 are omitted. Hi below 1 keeps exact duplicates out of a leader's
// cluster (the paper's related-but-not-copies use).
func (ix *Index) Clusters(lo, hi float64) ([]ClusterResult, error) {
	if err := checkRange(lo, hi); err != nil {
		return nil, err
	}
	bySID := ix.inner.SetsBySID()
	assigned := make([]bool, len(bySID))
	var out []ClusterResult
	for leader, s := range bySID {
		if s == nil || assigned[leader] {
			continue
		}
		matches, _, err := ix.query(*s, lo, hi)
		if err != nil {
			return nil, err
		}
		members := []int{leader}
		for _, m := range matches {
			// A sid past the snapshot was inserted during the call.
			if m.SID != leader && m.SID < len(assigned) && !assigned[m.SID] {
				members = append(members, m.SID)
			}
		}
		if len(members) < 2 {
			continue // the leader stays unassigned and may join a later cluster
		}
		for _, m := range members {
			assigned[m] = true
		}
		slices.Sort(members)
		out = append(out, ClusterResult{Leader: leader, Members: members})
	}
	return out, nil
}
