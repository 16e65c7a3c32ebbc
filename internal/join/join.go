// Package join implements a set-similarity self-join on top of the paper's
// filter-index machinery — one of the applications Section 1 motivates
// ("join algorithms", clustering of similar-but-not-identical pages).
//
// All pairs of sets with Jaccard similarity at least a threshold are found
// by building one Similarity Filter Index at the threshold, probing it
// with every set, and verifying candidate pairs exactly. Like the index
// itself the join is one-sided approximate: reported pairs are exact,
// while a pair is missed with probability (1 - p_{r,l}(s))² at its
// similarity level.
//
// The filter join verifies O(N + matching pairs) candidates instead of
// N²/2, but pays O(N·k) for signing and O(N·l) for table work up front;
// against the cache-friendly brute force its break-even is around a few
// thousand sets (see BenchmarkSelfJoin/BenchmarkExactJoin) and it pulls
// away quadratically beyond.
package join

import (
	"fmt"
	"sort"

	"repro/internal/filter"
	"repro/internal/minhash"
	"repro/internal/set"
	"repro/internal/storage"
)

// Pair is one join result with A < B.
type Pair struct {
	A, B       storage.SID
	Similarity float64
}

// Options configures SelfJoin.
type Options struct {
	// Threshold is the minimum Jaccard similarity, in (0, 1).
	Threshold float64
	// Tables is l for the filter index (default 20).
	Tables int
	// MinHashes is the signature length (default 64).
	MinHashes int
	// Seed makes the join reproducible (default 1).
	Seed int64
}

// Stats reports the join's work.
type Stats struct {
	// CandidatePairs is the number of (deduplicated) pairs the filter
	// proposed.
	CandidatePairs int
	// Verified is the number of candidate pairs whose exact similarity
	// was computed (equal to CandidatePairs).
	Verified int
	// Results is the number of pairs at or above the threshold.
	Results int
}

// SelfJoin returns every pair of sets with similarity >= opt.Threshold,
// sorted by descending similarity then (A, B).
func SelfJoin(sets []set.Set, opt Options) ([]Pair, Stats, error) {
	var stats Stats
	if opt.Threshold <= 0 || opt.Threshold >= 1 {
		return nil, stats, fmt.Errorf("join: threshold must be in (0,1), got %g", opt.Threshold)
	}
	tables := opt.Tables
	if tables <= 0 {
		tables = 20
	}
	k := opt.MinHashes
	if k <= 0 {
		k = 64
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	perms, err := minhash.NewFamily(k, seed)
	if err != nil {
		return nil, stats, err
	}
	code, err := filter.NewHadamard(8)
	if err != nil {
		return nil, stats, err
	}
	sfi, err := filter.New(0, filter.Options{
		Kind:            filter.Similar,
		Threshold:       filter.HammingFromJaccard(opt.Threshold),
		Code:            code,
		K:               k,
		Tables:          tables,
		Seed:            seed + 101,
		ExpectedEntries: len(sets),
	})
	if err != nil {
		return nil, stats, err
	}

	sigs := make([]minhash.Signature, len(sets))
	for i, s := range sets {
		sigs[i] = perms.Sign(s)
		sfi.Insert(sigs[i], storage.SID(i))
	}

	var out []Pair
	for i := range sets {
		a := storage.SID(i)
		for _, b := range sfi.Vector(sigs[i], nil) {
			if b <= a {
				continue // each unordered pair once, self excluded
			}
			stats.CandidatePairs++
			stats.Verified++
			sim := sets[a].Jaccard(sets[b])
			if sim >= opt.Threshold {
				out = append(out, Pair{A: a, B: b, Similarity: sim})
			}
		}
	}
	stats.Results = len(out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out, stats, nil
}

// Exact computes the join by brute force — the ground-truth comparator for
// tests and benchmarks.
func Exact(sets []set.Set, threshold float64) []Pair {
	var out []Pair
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if sim := sets[i].Jaccard(sets[j]); sim >= threshold {
				out = append(out, Pair{A: storage.SID(i), B: storage.SID(j), Similarity: sim})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
