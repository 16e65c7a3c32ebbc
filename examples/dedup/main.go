// Dedup: near-duplicate detection via the set-similarity self-join — the
// mirrored-web-pages use case from the paper's introduction ("identify
// clusters of web pages which are similar but not copies of each other"
// and mirror identification à la Broder et al.). The program generates a
// collection with injected near-copies, indexes it, joins it at a high
// threshold with one range query per set, and reports duplicate groups.
package main

import (
	"flag"
	"fmt"
	"log"

	ssr "repro"
	"repro/internal/workload"
)

func main() {
	var (
		n         = flag.Int("n", 3000, "number of sets")
		threshold = flag.Float64("t", 0.85, "duplicate similarity threshold")
	)
	flag.Parse()

	params := workload.Set1Params(*n)
	params.MirrorProb = 0.2 // plenty of near-copies to find
	sets, err := workload.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	c := ssr.NewCollection()
	for _, s := range sets {
		c.AddIDs(s.Elems()...)
	}
	ix, err := ssr.Build(c, ssr.Options{Budget: 200})
	if err != nil {
		log.Fatal(err)
	}

	pairs, err := ix.SimilarPairs(*threshold)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-join at threshold %.2f over %d sets:\n", *threshold, len(sets))
	fmt.Printf("  %d range queries (brute force would compare %d pairs)\n",
		len(sets), len(sets)*(len(sets)-1)/2)
	fmt.Printf("  %d duplicate pairs found\n\n", len(pairs))

	// Union the pairs into duplicate groups.
	parent := make([]int, len(sets))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, p := range pairs {
		ra, rb := find(p.A), find(p.B)
		if ra != rb {
			parent[rb] = ra
		}
	}
	groups := make(map[int][]int)
	for i := range parent {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	sizes := map[int]int{}
	largest := 0
	for _, members := range groups {
		if len(members) < 2 {
			continue // singleton: not a duplicate group
		}
		sizes[len(members)]++
		if len(members) > largest {
			largest = len(members)
		}
	}
	fmt.Printf("duplicate groups by size:\n")
	for size := 2; size <= largest; size++ {
		if sizes[size] > 0 {
			fmt.Printf("  %3d groups of size %d\n", sizes[size], size)
		}
	}
}
