// Logparse: end-to-end from raw HTTP access logs — the paper's own data
// pipeline. A synthetic Common Log Format file is emitted (standing in for
// the Olympics/corporate logs), parsed into per-client page sets, indexed,
// and queried, with the cost-based planner deciding between the filter
// indices and a direct scan per query.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"

	ssr "repro"
	"repro/internal/weblog"
	"repro/internal/workload"
)

func main() {
	var (
		n      = flag.Int("n", 1500, "number of synthetic clients")
		budget = flag.Int("budget", 120, "hash-table budget")
	)
	flag.Parse()

	// 1. Fabricate a raw access log: generate visitor page-sets, then emit
	// them as Common Log Format lines.
	sets, err := workload.Generate(workload.Set1Params(*n))
	if err != nil {
		log.Fatal(err)
	}
	clients := make([]string, len(sets))
	pages := make([][]string, len(sets))
	for i, s := range sets {
		clients[i] = fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255)
		list := make([]string, 0, s.Len())
		for _, e := range s.Elems() {
			list = append(list, fmt.Sprintf("/page/%d", e))
		}
		pages[i] = list
	}
	var raw bytes.Buffer
	if err := weblog.EmitSynthetic(&raw, clients, pages); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw log: %d bytes, %d clients\n", raw.Len(), len(clients))

	// 2. Parse it back the way the paper did: one set of distinct request
	// paths per client IP.
	coll, parsedClients, err := ssr.FromAccessLog(&raw, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d client page-sets\n", coll.Len())

	// 3. Index and query with the cost-based planner choosing the access
	// path per query.
	ix, err := ssr.Build(coll, ssr.Options{
		Budget: *budget, RecallTarget: 0.8, Seed: 7,
		// Account pages at their raw log-string size so the planner's
		// scan-vs-index economics match the original medium.
		PayloadBytesPerElement: 80,
	})
	if err != nil {
		log.Fatal(err)
	}
	ix.EnablePlanner(ssr.PlannerPolicy{})
	for _, r := range [][2]float64{{0.9, 1.0}, {0.4, 0.7}, {0.0, 1.0}} {
		matches, stats, err := ix.Query(pages[3], r[0], r[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("range [%.1f, %.1f]: %4d matches via %-11s (%5d candidates, simulated I/O %v)\n",
			r[0], r[1], len(matches), stats.PlanChosen, stats.Candidates, stats.SimulatedIOTime.Round(1e6))
	}
	// Who is client 3's nearest neighbour?
	top, _, err := ix.TopK(pages[3], 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnearest neighbours of client", parsedClients[3])
	for _, m := range top {
		fmt.Printf("  %s at similarity %.3f\n", parsedClients[m.SID], m.Similarity)
	}
}
