// Weblog: the "what's related" scenario from the paper's introduction.
// Treating each visitor's page set as a document, the program clusters a
// synthetic web log by repeatedly picking an unclustered visitor and
// pulling in everyone similar-but-not-identical to it (the paper's
// suggested range query for finding related-but-not-copied pages), and
// separately flags exact-duplicate visitors (mirrors/proxies).
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
		n      = flag.Int("n", 4000, "number of visitor sets")
		budget = flag.Int("budget", 200, "hash-table budget")
	)
	flag.Parse()

	sets, err := workload.Generate(workload.Set2Params(*n))
	if err != nil {
		log.Fatal(err)
	}
	c := ssr.NewCollection()
	for _, s := range sets {
		c.AddIDs(s.Elems()...)
	}
	ix, err := ssr.Build(c, ssr.Options{Budget: *budget, RecallTarget: 0.85, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d visitor page-sets\n", c.Len())

	// Mirror detection: near-identical visitors (NAT pools, re-dials,
	// mirrored crawls) — similarity above 0.95.
	mirrors := 0
	checked := 200
	for sid := 0; sid < checked; sid++ {
		matches, _, err := ix.QuerySID(sid, 0.95, 1.0)
		if err != nil {
			log.Fatal(err)
		}
		// Exclude self (similarity 1 with itself).
		for _, m := range matches {
			if m.SID != sid {
				mirrors++
				break
			}
		}
	}
	fmt.Printf("mirror scan: %d of the first %d visitors have a >= 0.95 twin\n", mirrors, checked)

	// Related-but-not-copies clustering: leader clustering with the
	// paper's similar-but-distinct band, one index query per leader.
	const lo, hi, shown = 0.5, 0.95, 12
	clusters, err := ix.Clusters(lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	clustered := 0
	for i, cl := range clusters {
		clustered += len(cl.Members)
		if i < shown {
			fmt.Printf("cluster %2d: leader %-6d members %d\n", i, cl.Leader, len(cl.Members))
		}
	}
	fmt.Printf("%d visitors grouped into %d related-content clusters (band [%.2f, %.2f]; the first %d shown)\n",
		clustered, len(clusters), lo, hi, min(shown, len(clusters)))
}
