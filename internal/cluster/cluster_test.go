package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/workload"
)

func fixture(t *testing.T, n int) (*engine.Engine, []set.Set) {
	t.Helper()
	sets, err := workload.Generate(workload.Set1Params(n))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := engine.Build(sets, engine.Options{Core: core.Options{
		Embed: minhash.Options{K: 48, Bits: 8, Seed: 4},
		Plan:  optimize.Options{Budget: 40, RecallTarget: 0.8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return ix, sets
}

func TestLeadersPartition(t *testing.T) {
	ix, sets := fixture(t, 400)
	res, err := Leaders(ix, sets, Options{Lo: 0.5, Hi: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Every sid appears exactly once across clusters and unassigned.
	seen := make(map[uint32]int)
	for _, c := range res.Clusters {
		for _, m := range c.Members {
			seen[m]++
		}
		// Leader among members; members sorted ascending.
		hasLeader := false
		for i, m := range c.Members {
			if m == c.Leader {
				hasLeader = true
			}
			if i > 0 && c.Members[i-1] >= m {
				t.Fatal("members not sorted unique")
			}
		}
		if !hasLeader {
			t.Fatalf("cluster %v lacks its leader", c.Leader)
		}
		if len(c.Members) < 2 {
			t.Fatalf("cluster of size %d below default MinSize", len(c.Members))
		}
	}
	for _, sid := range res.Unassigned {
		seen[sid]++
	}
	if len(seen) != len(sets) {
		t.Fatalf("%d sids covered, want %d", len(seen), len(sets))
	}
	for sid, n := range seen {
		if n != 1 {
			t.Fatalf("sid %d assigned %d times", sid, n)
		}
	}
	if len(res.Clusters) == 0 {
		t.Error("no clusters found in a clustered workload")
	}
	if res.Queries == 0 {
		t.Error("no queries recorded")
	}
}

func TestLeadersMembersActuallySimilar(t *testing.T) {
	ix, sets := fixture(t, 300)
	res, err := Leaders(ix, sets, Options{Lo: 0.6, Hi: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		for _, m := range c.Members {
			if m == c.Leader {
				continue
			}
			if sim := sets[c.Leader].Jaccard(sets[m]); sim < 0.6 {
				t.Fatalf("member %d at similarity %.3f to leader %d (< band)", m, sim, c.Leader)
			}
		}
	}
}

func TestLeadersMaxClusters(t *testing.T) {
	ix, sets := fixture(t, 300)
	res, err := Leaders(ix, sets, Options{Lo: 0.3, Hi: 1.0, MaxClusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) > 2 {
		t.Errorf("got %d clusters, cap was 2", len(res.Clusters))
	}
}

func TestLeadersValidation(t *testing.T) {
	ix, sets := fixture(t, 100)
	if _, err := Leaders(ix, sets[:50], Options{Lo: 0.5, Hi: 1}); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := Leaders(ix, sets, Options{Lo: 0.9, Hi: 0.5}); err == nil {
		t.Error("inverted band accepted")
	}
	if _, err := Leaders(ix, sets, Options{Lo: -0.1, Hi: 0.5}); err == nil {
		t.Error("negative lo accepted")
	}
}

func TestLeadersMinSize(t *testing.T) {
	ix, sets := fixture(t, 200)
	strict, err := Leaders(ix, sets, Options{Lo: 0.5, Hi: 1.0, MinSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range strict.Clusters {
		if len(c.Members) < 10 {
			t.Errorf("cluster of size %d below MinSize 10", len(c.Members))
		}
	}
}
