package ssr

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/set"
	"repro/internal/weblog"
	"repro/internal/workload"
)

func TestFromAccessLog(t *testing.T) {
	// Emit a synthetic log with known structure, parse it back, index it,
	// and retrieve the planted near-duplicate clients.
	clients := []string{"1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4"}
	pages := [][]string{
		{"/a", "/b", "/c", "/d"},
		{"/a", "/b", "/c", "/d"}, // duplicate of client 0
		{"/a", "/x", "/y"},
		{"/p", "/q", "/r"},
	}
	var buf bytes.Buffer
	if err := weblog.EmitSynthetic(&buf, clients, pages); err != nil {
		t.Fatal(err)
	}
	c, gotClients, err := FromAccessLog(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotClients) != 4 || c.Len() != 4 {
		t.Fatalf("clients = %v, len = %d", gotClients, c.Len())
	}
	// Pad so the optimizer has a distribution, then index.
	for i := 0; i < 60; i++ {
		c.Add("/filler-"+string(rune('a'+i%26)), "/filler2-"+string(rune('a'+(i*3)%26)), "/f3-"+string(rune('a'+(i*7)%26)))
	}
	ix, err := Build(c, Options{Budget: 16, MinHashes: 48, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := ix.QuerySID(0, 0.99, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.SID == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("duplicate client not retrieved: %v", matches)
	}
}

func TestFromAccessLogEmpty(t *testing.T) {
	if _, _, err := FromAccessLog(strings.NewReader("garbage\n"), 1); err == nil {
		t.Error("garbage log accepted")
	}
}

// workloadIndex builds a public index over n Set1 sets, sid i holding
// sets[i].
func workloadIndex(t *testing.T, n int) (*Index, []set.Set) {
	t.Helper()
	sets, err := workload.Generate(workload.Set1Params(n))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection()
	for _, s := range sets {
		c.AddIDs(s.Elems()...)
	}
	ix, err := Build(c, Options{Budget: 30, MinHashes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ix, sets
}

// exactPairs is the brute-force self-join: every pair (i < j) with
// similarity at least threshold, keyed by its sids.
func exactPairs(sets []set.Set, threshold float64) map[[2]int]float64 {
	out := map[[2]int]float64{}
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if sim := sets[i].Jaccard(sets[j]); sim >= threshold {
				out[[2]int{i, j}] = sim
			}
		}
	}
	return out
}

// pairRecall checks every reported pair against the brute-force join —
// ordered, reported once, with its exact similarity — and returns the
// fraction of true pairs reported.
func pairRecall(t *testing.T, sets []set.Set, pairs []PairMatch, threshold float64) float64 {
	t.Helper()
	truth := exactPairs(sets, threshold)
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		key := [2]int{p.A, p.B}
		sim, ok := truth[key]
		if !ok {
			t.Fatalf("false positive pair %+v (true similarity %g)", p, sets[p.A].Jaccard(sets[p.B]))
		}
		if p.A >= p.B || p.Similarity != sim || seen[key] {
			t.Fatalf("pair %+v: unordered, inexact (true %g) or repeated", p, sim)
		}
		seen[key] = true
	}
	if len(truth) == 0 {
		t.Fatalf("no true pairs at threshold %g: the check is vacuous", threshold)
	}
	return float64(len(seen)) / float64(len(truth))
}

func TestSimilarPairs(t *testing.T) {
	ix, sets := workloadIndex(t, 300)
	pairs, err := ix.SimilarPairs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if recall := pairRecall(t, sets, pairs, 0.8); recall < 0.95 {
		t.Errorf("self-join recall %.3f, want >= 0.95", recall)
	}
}

func TestSelfJoinNoFalsePositives(t *testing.T) {
	ix, sets := workloadIndex(t, 400)
	pairs, err := ix.SimilarPairs(0.7)
	if err != nil {
		t.Fatal(err)
	}
	pairRecall(t, sets, pairs, 0.7)
}

func TestSelfJoinRecall(t *testing.T) {
	ix, sets := workloadIndex(t, 400)
	pairs, err := ix.SimilarPairs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if recall := pairRecall(t, sets, pairs, 0.8); recall < 0.8 {
		t.Errorf("self-join recall %.3f, want >= 0.8", recall)
	}
}

func TestSelfJoinValidation(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 16, MinHashes: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := ix.SimilarPairs(threshold); err == nil {
			t.Errorf("threshold %g accepted", threshold)
		}
	}
}

func TestSelfJoinSortedOutput(t *testing.T) {
	ix, _ := workloadIndex(t, 300)
	pairs, err := ix.SimilarPairs(0.6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pairs); i++ {
		a, b := pairs[i-1], pairs[i]
		if a.Similarity < b.Similarity || a.Similarity == b.Similarity && (a.A > b.A || a.A == b.A && a.B >= b.B) {
			t.Fatalf("pairs %d and %d out of (similarity desc, A, B) order: %+v, %+v", i-1, i, a, b)
		}
	}
}

// TestSelfJoinIdenticalSetsAlwaysPaired: identical sets collide in every
// table, so their pairs are never missed.
func TestSelfJoinIdenticalSetsAlwaysPaired(t *testing.T) {
	c := NewCollection()
	c.Add("a", "b", "c", "d", "e")
	c.Add("a", "b", "c", "d", "e")
	c.Add("x", "y", "z")
	c.Add("x", "y", "z")
	for i := 0; i < 60; i++ {
		c.Add(fmt.Sprintf("filler-%d-a", i), fmt.Sprintf("filler-%d-b", i))
	}
	ix, err := Build(c, Options{Budget: 16, MinHashes: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := ix.SimilarPairs(0.9)
	if err != nil {
		t.Fatal(err)
	}
	want := []PairMatch{{A: 0, B: 1, Similarity: 1}, {A: 2, B: 3, Similarity: 1}}
	if fmt.Sprint(pairs) != fmt.Sprint(want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
}

// checkPartition checks the clusters are disjoint, each at least two
// sorted members including its leader, and returns the clustered sids.
func checkPartition(t *testing.T, clusters []ClusterResult) map[int]bool {
	t.Helper()
	seen := map[int]bool{}
	for _, cl := range clusters {
		if len(cl.Members) < 2 {
			t.Fatalf("cluster %+v below the minimum size 2", cl)
		}
		hasLeader := false
		for i, m := range cl.Members {
			hasLeader = hasLeader || m == cl.Leader
			if i > 0 && cl.Members[i-1] >= m {
				t.Fatalf("cluster %+v: members not sorted and unique", cl)
			}
			if seen[m] {
				t.Fatalf("sid %d in two clusters", m)
			}
			seen[m] = true
		}
		if !hasLeader {
			t.Fatalf("cluster %+v lacks its leader", cl)
		}
	}
	return seen
}

func TestClustersPublic(t *testing.T) {
	ix, _ := workloadIndex(t, 300)
	clusters, err := ix.Clusters(0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters in a clustered workload")
	}
	checkPartition(t, clusters)
}

// TestLeadersPartition checks leader order too: a leader is the smallest
// sid of its cluster that no earlier cluster took, so no earlier sid was
// left out of every cluster while the leader's query could have found it.
func TestLeadersPartition(t *testing.T) {
	ix, _ := workloadIndex(t, 400)
	clusters, err := ix.Clusters(0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters in a clustered workload")
	}
	checkPartition(t, clusters)
	for i, cl := range clusters {
		if cl.Members[0] != cl.Leader {
			t.Errorf("cluster %d: leader %d is not its smallest member %d", i, cl.Leader, cl.Members[0])
		}
		if i > 0 && clusters[i-1].Leader >= cl.Leader {
			t.Errorf("cluster %d: leaders %d, %d not in sid order", i, clusters[i-1].Leader, cl.Leader)
		}
	}
}

func TestLeadersMembersActuallySimilar(t *testing.T) {
	ix, sets := workloadIndex(t, 300)
	const lo, hi = 0.6, 0.95
	clusters, err := ix.Clusters(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters in a clustered workload")
	}
	for _, cl := range clusters {
		for _, m := range cl.Members {
			if m == cl.Leader {
				continue
			}
			if sim := sets[cl.Leader].Jaccard(sets[m]); sim < lo || sim > hi {
				t.Fatalf("member %d at similarity %.3f to leader %d, outside [%g, %g]", m, sim, cl.Leader, lo, hi)
			}
		}
	}
}

func TestLeadersValidation(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 16, MinHashes: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, band := range [][2]float64{{0.9, 0.5}, {-0.1, 0.5}, {0.5, 1.1}, {math.NaN(), 1}, {0, math.NaN()}} {
		if _, err := ix.Clusters(band[0], band[1]); err == nil {
			t.Errorf("band [%g, %g] accepted", band[0], band[1])
		}
	}
}

// TestLeadersMinSize: a leader whose query finds nothing unassigned but
// itself forms no cluster, so sets similar to nothing appear nowhere.
func TestLeadersMinSize(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 16, MinHashes: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := ix.Clusters(0.9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Sid 2 duplicates sid 0; no other set has a neighbour at 0.9.
	want := []ClusterResult{{Leader: 0, Members: []int{0, 2}}}
	if fmt.Sprint(clusters) != fmt.Sprint(want) {
		t.Fatalf("clusters = %v, want %v", clusters, want)
	}
}

// TestBulkOpsSkipRemovedSIDs removes a set that has similar pairs and
// checks that neither the self-join nor the clustering names it again,
// at one shard and at four. Sids 0-2 are identical, so every query finds
// the others.
func TestBulkOpsSkipRemovedSIDs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := NewCollection()
			for i := 0; i < 3; i++ {
				c.Add("dune", "foundation", "hyperion", "neuromancer")
			}
			for i := 0; i < 60; i++ {
				c.Add(fmt.Sprintf("filler-%d-a", i), fmt.Sprintf("filler-%d-b", i))
			}
			ix, err := Build(c, Options{Budget: 16, MinHashes: 32, Seed: 4, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			check := func(wantPairs []PairMatch, wantClusters []ClusterResult) {
				t.Helper()
				pairs, err := ix.SimilarPairs(0.9)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(pairs) != fmt.Sprint(wantPairs) {
					t.Errorf("pairs = %v, want %v", pairs, wantPairs)
				}
				clusters, err := ix.Clusters(0.9, 1.0)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(clusters) != fmt.Sprint(wantClusters) {
					t.Errorf("clusters = %v, want %v", clusters, wantClusters)
				}
			}
			check([]PairMatch{{0, 1, 1}, {0, 2, 1}, {1, 2, 1}}, []ClusterResult{{0, []int{0, 1, 2}}})
			if err := ix.Remove(1); err != nil {
				t.Fatal(err)
			}
			check([]PairMatch{{0, 2, 1}}, []ClusterResult{{0, []int{0, 2}}})
		})
	}
}

// TestBulkOpsUnderInserts runs the self-join and the clustering while
// copies of existing sets are added. A query can find a copy whose sid
// lies past the SetsBySID snapshot the call iterates; clustering must
// neither index past its snapshot nor lose the partition.
func TestBulkOpsUnderInserts(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(300))
	if err != nil {
		t.Fatal(err)
	}
	c, elems := stringCollection(sets)
	ix, err := Build(c, Options{Budget: 30, MinHashes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Copies of the last sets first: their leaders query last.
		for i := len(elems) - 1; i >= 0; i-- {
			if _, err := ix.Add(elems[i]...); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		clusters, err := ix.Clusters(0.5, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, clusters)
		if _, err := ix.SimilarPairs(0.8); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
