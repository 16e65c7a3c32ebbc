package ssr

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// bookstore builds a small collection with known similarity structure.
func bookstore() *Collection {
	c := NewCollection()
	c.Add("dune", "foundation", "hyperion", "neuromancer") // 0
	c.Add("dune", "foundation", "hyperion", "snowcrash")   // 1: sim 3/5 with 0
	c.Add("dune", "foundation", "hyperion", "neuromancer") // 2: duplicate of 0
	c.Add("cookbook", "gardening", "carpentry")            // 3: disjoint
	c.Add("dune", "cookbook")                              // 4
	for i := 0; i < 60; i++ {
		c.Add(fmt.Sprintf("filler-%d-a", i), fmt.Sprintf("filler-%d-b", i))
	}
	return c
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{Budget: 10}); err == nil {
		t.Error("nil collection accepted")
	}
	if _, err := Build(NewCollection(), Options{Budget: 10}); err == nil {
		t.Error("empty collection accepted")
	}
	c := bookstore()
	if _, err := Build(c, Options{}); err == nil {
		t.Error("zero budget accepted")
	}
	for _, target := range []float64{-0.5, 1.5, math.Inf(1), math.NaN()} {
		if _, err := Build(c, Options{Budget: 20, RecallTarget: target}); err == nil {
			t.Errorf("recall target %g accepted", target)
		}
	}
	// A hash-table page counts its entries in 16 bits; a larger page would
	// wrap the count and drop sids.
	if _, err := Build(c, Options{Budget: 20, PageSize: 1 << 20}); err == nil {
		t.Error("1 MiB pages accepted")
	}
	if _, err := Build(c, Options{Budget: 20, PayloadBytesPerElement: 1 << 30}); err == nil {
		t.Error("1 GiB payload per element accepted")
	}
	// Load rejects a snapshot with negative storage parameters, so Build
	// must reject them too.
	if _, err := Build(c, Options{Budget: 20, PageSize: -1}); err == nil {
		t.Error("negative page size accepted")
	}
	if _, err := Build(c, Options{Budget: 20, PayloadBytesPerElement: -1}); err == nil {
		t.Error("negative payload per element accepted")
	}
	// This budget gives one filter index more than 2^16 tables, which
	// Load refuses, so Build must refuse it before allocating a table.
	if _, err := Build(c, Options{Budget: 70000, MinHashes: 16}); err == nil {
		t.Error("budget 70000 accepted")
	}
}

func TestQueryFindsDuplicates(t *testing.T) {
	c := bookstore()
	ix, err := Build(c, Options{Budget: 24, RecallTarget: 0.9, MinHashes: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	matches, stats, err := ix.Query([]string{"dune", "foundation", "hyperion", "neuromancer"}, 0.9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, m := range matches {
		found[m.SID] = true
		if m.Similarity != 1 {
			t.Errorf("match %d similarity %g, want 1", m.SID, m.Similarity)
		}
	}
	if !found[0] || !found[2] {
		t.Errorf("duplicates not retrieved: %v", matches)
	}
	if found[3] {
		t.Error("disjoint set retrieved at 0.9")
	}
	if stats.Results != len(matches) {
		t.Errorf("stats.Results = %d, matches = %d", stats.Results, len(matches))
	}
}

func TestQuerySID(t *testing.T) {
	c := bookstore()
	ix, err := Build(c, Options{Budget: 24, MinHashes: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := ix.QuerySID(0, 0.95, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	self := false
	for _, m := range matches {
		if m.SID == 0 {
			self = true
		}
	}
	if !self {
		t.Error("QuerySID did not retrieve the query set itself")
	}
	if _, _, err := ix.QuerySID(-1, 0, 1); err == nil {
		t.Error("negative sid accepted")
	}
	if _, _, err := ix.QuerySID(10000, 0, 1); err == nil {
		t.Error("out-of-range sid accepted")
	}
}

func TestQueryIDs(t *testing.T) {
	c := NewCollection()
	for i := 0; i < 50; i++ {
		c.AddIDs(uint64(i*100), uint64(i*100+1), uint64(i*100+2))
	}
	ix, err := Build(c, Options{Budget: 16, MinHashes: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := ix.QueryIDs([]uint64{0, 1, 2}, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].SID != 0 {
		t.Errorf("QueryIDs = %v", matches)
	}
}

func TestQueryRangeValidation(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 16, MinHashes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]float64{{-0.1, 0.5}, {0.5, 1.1}, {0.8, 0.2}} {
		if _, _, err := ix.Query([]string{"x"}, r[0], r[1]); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
}

func TestQueryUnknownElements(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 16, MinHashes: 32})
	if err != nil {
		t.Fatal(err)
	}
	// A query of entirely unseen elements matches nothing at high sim.
	matches, _, err := ix.Query([]string{"totally", "unknown", "things"}, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("unknown-element query returned %v", matches)
	}
}

func TestAdd(t *testing.T) {
	c := bookstore()
	ix, err := Build(c, Options{Budget: 24, MinHashes: 48, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sid, err := ix.Add("dune", "foundation", "hyperion", "neuromancer")
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := ix.QuerySID(0, 0.95, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.SID == sid {
			found = true
		}
	}
	if !found {
		t.Error("dynamically added duplicate not retrieved")
	}
}

func TestPlanSummary(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 24, MinHashes: 48, RecallTarget: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	p := ix.Plan()
	if len(p.Cuts) == 0 {
		t.Error("no cuts in plan")
	}
	if len(p.FilterIndexes) < 2 {
		t.Errorf("only %d filter indexes", len(p.FilterIndexes))
	}
	tables := 0
	sfi, dfi := 0, 0
	for _, fi := range p.FilterIndexes {
		tables += fi.Tables
		switch fi.Kind {
		case "SFI":
			sfi++
		case "DFI":
			dfi++
		default:
			t.Errorf("unknown kind %q", fi.Kind)
		}
		if fi.SampledBits < 1 {
			t.Errorf("fi at %g has r=%d", fi.Point, fi.SampledBits)
		}
	}
	if tables != 24 {
		t.Errorf("allocated %d tables, budget 24", tables)
	}
	if sfi == 0 || dfi == 0 {
		t.Errorf("plan lacks a kind: %d SFIs, %d DFIs", sfi, dfi)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		t.Errorf("delta = %g", p.Delta)
	}
}

func TestDistribution(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 16, MinHashes: 32})
	if err != nil {
		t.Fatal(err)
	}
	d := ix.Distribution()
	if len(d) == 0 {
		t.Fatal("empty distribution")
	}
	sum := 0.0
	for _, v := range d {
		if v < 0 {
			t.Fatal("negative mass")
		}
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("distribution sums to %g", sum)
	}
	if est, err := ix.EstimateAnswerSize(0, 1); err != nil || est <= 0 {
		t.Errorf("EstimateAnswerSize = %g, %v", est, err)
	}
}

// TestDistributionOfLoadedIndex: a loaded index knows no profile until it
// retunes, so Distribution returns nil rather than panicking; a forced
// retune profiles the live collection afresh.
func TestDistributionOfLoadedIndex(t *testing.T) {
	built, err := Build(bookstore(), Options{Budget: 16, MinHashes: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Distribution(); d != nil {
		t.Fatalf("loaded index reports a distribution before any retune: %v", d)
	}
	if _, err := ix.Retune(); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range ix.Distribution() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("retuned distribution sums to %g", sum)
	}
}

func TestCollectionGet(t *testing.T) {
	c := NewCollection()
	c.Add("b", "a")
	names, err := c.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Get = %v", names)
	}
	if _, err := c.Get(5); err == nil {
		t.Error("out-of-range Get succeeded")
	}
}

func TestEstimateDistribution(t *testing.T) {
	c := bookstore()
	d, err := EstimateDistribution(c, 20, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("estimate sums to %g", sum)
	}
	// The seed is the whole source of randomness: the same seed draws the
	// same pairs, so the masses repeat bit for bit. Sliding windows spread
	// the pair similarities over many bins (bookstore's pairs almost all
	// fall in bin 0), so two independent draws would differ.
	windows := NewCollection()
	for i := 0; i < 50; i++ {
		elems := make([]string, 20)
		for j := range elems {
			elems[j] = fmt.Sprint(i + j)
		}
		windows.Add(elems...)
	}
	first, err := EstimateDistribution(windows, 20, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EstimateDistribution(windows, 20, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first, again) {
		t.Errorf("same seed, different masses:\n%v\n%v", first, again)
	}
	if _, err := EstimateDistribution(NewCollection(), 10, 10, 1); err == nil {
		t.Error("empty collection accepted")
	}
	// More than 2^20 bins is refused before a histogram is allocated
	// (1<<40 used to exhaust memory); bins <= 0 selects 200.
	if _, err := EstimateDistribution(c, 1<<20+1, 500, 1); err == nil {
		t.Error("2^20+1 bins accepted")
	}
	if d, err := EstimateDistribution(c, 0, 500, 1); err != nil || len(d) != 200 {
		t.Errorf("bins 0: %d masses, %v; want the default 200", len(d), err)
	}
}

func TestStatsIOAccounting(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 24, MinHashes: 48})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := ix.QuerySID(0, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RandomPageReads == 0 {
		t.Error("no random page reads recorded")
	}
	if stats.SimulatedIOTime <= 0 {
		t.Error("no simulated I/O time")
	}
}

func TestRemove(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ix, err := Build(bookstore(), Options{Budget: 24, MinHashes: 48, Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// Set 2 duplicates set 0; after removing it, a high-sim query from
		// set 0 must no longer return it.
		if err := ix.Remove(2); err != nil {
			t.Fatalf("shards=%d remove: %v", shards, err)
		}
		matches, _, err := ix.QuerySID(0, 0.9, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if m.SID == 2 {
				t.Errorf("shards=%d: removed set still returned", shards)
			}
		}
		if err := ix.Remove(2); err == nil {
			t.Errorf("shards=%d: double remove accepted", shards)
		}
		if err := ix.Remove(-1); err == nil {
			t.Errorf("shards=%d: negative sid accepted", shards)
		}
		// A sid past the uint32 sid space must not truncate onto sid 0.
		n := ix.Len()
		before, _, err := ix.QuerySID(0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(1 << 32); err == nil {
			t.Errorf("shards=%d: sid 1<<32 accepted", shards)
		}
		after, _, err := ix.QuerySID(0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != n || !reflect.DeepEqual(before, after) {
			t.Errorf("shards=%d: Remove(1<<32) changed the index: Len %d -> %d, QuerySID(0) %v -> %v",
				shards, n, ix.Len(), before, after)
		}
	}
}

func TestQueryRejectsInvalidRanges(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 24, MinHashes: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]float64{{0.9, 0.1}, {math.NaN(), 1}, {0.5, math.NaN()}, {-3, 0.5}} {
		if _, _, err := ix.Query([]string{"x"}, r[0], r[1]); err == nil {
			t.Errorf("Query: invalid range %v accepted", r)
		}
		if _, _, err := ix.QuerySID(0, r[0], r[1]); err == nil {
			t.Errorf("QuerySID: invalid range %v accepted", r)
		}
		if _, err := ix.EstimateAnswerSize(r[0], r[1]); err == nil {
			t.Errorf("EstimateAnswerSize: invalid range %v accepted", r)
		}
	}
}
