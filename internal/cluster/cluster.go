// Package cluster implements leader-based clustering of a set collection
// by similarity — the paper's Section 1 application of range retrieval as
// a primitive for "clustering algorithms for sets" and the 'what's
// related' feature. Each unassigned set in turn becomes a leader and pulls
// in every unassigned set within a similarity band of it, using one index
// range query per leader instead of O(N) comparisons.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/set"
	"repro/internal/storage"
)

// Options configures Leaders.
type Options struct {
	// Lo, Hi is the similarity band members must be in relative to their
	// leader. Hi below 1 excludes exact duplicates from membership (the
	// paper's related-but-not-copies use); Hi = 1 includes them.
	Lo, Hi float64
	// MinSize discards clusters with fewer members (leader included);
	// their sets return to the unassigned pool as singletons. Default 2.
	MinSize int
	// MaxClusters stops after this many clusters (0 = unlimited).
	MaxClusters int
}

// Cluster is one leader cluster.
type Cluster struct {
	// Leader is the sid the cluster grew from.
	Leader storage.SID
	// Members holds all member sids including the leader, ascending.
	Members []storage.SID
}

// Result is the clustering outcome.
type Result struct {
	// Clusters in creation order.
	Clusters []Cluster
	// Unassigned sids (singletons), ascending.
	Unassigned []storage.SID
	// Queries is how many index range queries were issued.
	Queries int
}

// Leaders clusters the collection behind the index. The sets slice must be
// the collection the index was built from, indexed by sid (it provides
// leader query sets without storage round-trips). Indexes with deletions
// are rejected — sid positions would no longer align; rebuild first.
func Leaders(ix *engine.Engine, sets []set.Set, opt Options) (Result, error) {
	var res Result
	if ix.NumAllocated() != ix.Len() {
		return res, fmt.Errorf("cluster: index has deletions (%d of %d sids live); rebuild before clustering",
			ix.Len(), ix.NumAllocated())
	}
	if len(sets) != ix.Len() {
		return res, fmt.Errorf("cluster: collection size %d != index size %d", len(sets), ix.Len())
	}
	if opt.Lo < 0 || opt.Hi > 1 || opt.Lo > opt.Hi {
		return res, fmt.Errorf("cluster: invalid band [%g, %g]", opt.Lo, opt.Hi)
	}
	minSize := opt.MinSize
	if minSize <= 0 {
		minSize = 2
	}
	assigned := make([]bool, len(sets))
	for sid := range sets {
		if assigned[sid] {
			continue
		}
		if opt.MaxClusters > 0 && len(res.Clusters) >= opt.MaxClusters {
			break
		}
		matches, _, err := ix.QueryWithOptions(sets[sid], opt.Lo, opt.Hi, core.QueryOptions{})
		if err != nil {
			return res, fmt.Errorf("cluster: leader %d: %w", sid, err)
		}
		res.Queries++
		members := []storage.SID{storage.SID(sid)}
		for _, m := range matches {
			if int(m.SID) != sid && !assigned[m.SID] {
				members = append(members, m.SID)
			}
		}
		if len(members) < minSize {
			continue // leader stays unassigned; may join a later cluster
		}
		for _, m := range members {
			assigned[m] = true
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		res.Clusters = append(res.Clusters, Cluster{Leader: storage.SID(sid), Members: members})
	}
	for sid := range sets {
		if !assigned[sid] {
			res.Unassigned = append(res.Unassigned, storage.SID(sid))
		}
	}
	return res, nil
}
