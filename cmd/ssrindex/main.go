// Command ssrindex builds a similar-set index over a text collection (one
// set per line, elements whitespace-separated — the ssrgen format) and
// answers range queries against it.
//
// Usage:
//
//	ssrgen -n 5000 -o sets.txt
//	ssrindex -data sets.txt -budget 200 -query 17 -lo 0.8 -hi 1.0
//	ssrindex -data sets.txt -budget 200 -plan        # just show the layout
//	ssrindex -data sets.txt -wal ./idx               # bootstrap a durable dir
//	ssrindex -wal ./idx -query 17                    # recover and query it
//
// The query set is referenced by line number (-query) so the tool stays
// format-agnostic; library users would pass their own sets through the
// public API. With -wal the index lives in a durability directory
// (write-ahead log + checkpoints, shared with ssrserver): the first run
// bootstraps it from -data, later runs recover from the directory alone
// and a clean exit flushes a final checkpoint.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	ssr "repro"
	"repro/internal/textio"
)

func main() {
	var (
		data     = flag.String("data", "", "collection file (required; one set per line)")
		budget   = flag.Int("budget", 200, "hash-table budget")
		recall   = flag.Float64("recall", 0.9, "optimizer recall target")
		k        = flag.Int("k", 100, "min-hash signature length")
		seed     = flag.Int64("seed", 1, "build seed")
		shards   = flag.Int("shards", 1, "independent index shards (1 = classic monolithic layout)")
		queryIdx = flag.Int("query", -1, "line number of the query set (0-based)")
		lo       = flag.Float64("lo", 0.8, "lower similarity bound")
		hi       = flag.Float64("hi", 1.0, "upper similarity bound")
		plan     = flag.Bool("plan", false, "print the optimizer's plan and exit")
		limit    = flag.Int("limit", 20, "max matches to print")
		save     = flag.String("save", "", "write an index snapshot to this file after building")
		load     = flag.String("load", "", "load the index from a snapshot instead of building")
		walDir   = flag.String("wal", "", "durability directory (bootstrap from -data, or recover if it has state)")
		walPre   = flag.Int64("wal-prealloc", 0, "preallocate log segments in chunks of this many bytes (0 = plain append+fsync)")
		autotune = flag.Bool("autotune", false, "track similarity drift and hot-swap a re-derived plan in the background while this process runs")
		retune   = flag.Bool("retune", false, "re-derive the plan from the live collection once after opening (on a durable index the new plan is checkpointed)")
	)
	flag.Parse()
	if *data == "" && *load == "" && *walDir == "" {
		fmt.Fprintln(os.Stderr, "ssrindex: -data, -load, or -wal is required")
		os.Exit(1)
	}
	if *walDir != "" && *load != "" {
		fmt.Fprintln(os.Stderr, "ssrindex: -wal and -load are mutually exclusive (the durability directory has its own checkpoints)")
		os.Exit(1)
	}
	if err := run(*data, *budget, *recall, *k, *seed, *shards, *queryIdx, *lo, *hi, *plan, *limit, *save, *load, *walDir, *walPre, *autotune, *retune); err != nil {
		fmt.Fprintf(os.Stderr, "ssrindex: %v\n", err)
		os.Exit(1)
	}
}

func run(path string, budget int, recall float64, k int, seed int64, shards, queryIdx int, lo, hi float64, planOnly bool, limit int, savePath, loadPath, walDir string, walPre int64, autotune, retune bool) (err error) {
	var ix *ssr.Index
	switch {
	case walDir != "":
		ix, err = openDurable(walDir, path, budget, recall, k, seed, shards, walPre)
		if err != nil {
			return err
		}
		// A clean exit checkpoints; its error matters as much as the run's.
		defer func() {
			if cerr := ix.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	case loadPath != "":
		f, err := os.Open(loadPath)
		if err != nil {
			return err
		}
		start := time.Now()
		ix, err = ssr.Load(f)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("loaded snapshot %s (%d sets) in %v\n", loadPath, ix.Internal().Len(), time.Since(start).Round(time.Millisecond))
	default:
		coll, err := textio.LoadCollection(path)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d sets from %s\n", coll.Len(), path)

		start := time.Now()
		ix, err = ssr.Build(coll, ssr.Options{
			Budget:       budget,
			RecallTarget: recall,
			MinHashes:    k,
			Seed:         seed,
			Shards:       shards,
		})
		if err != nil {
			return err
		}
		fmt.Printf("built index in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if autotune {
		if err := ix.EnableAutoTune(ssr.TunePolicy{Seed: seed}); err != nil {
			return err
		}
	}
	if retune {
		rep, err := ix.Retune()
		if err != nil {
			return err
		}
		fmt.Printf("retuned: swapped=%v generation=%d drift=%.3f\n", rep.Swapped, rep.Generation, rep.Drift)
	}
	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			return err
		}
		if err := ix.Save(f); err != nil {
			if cerr := f.Close(); cerr != nil {
				return fmt.Errorf("%w (and closing %s: %v)", err, savePath, cerr)
			}
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, err := os.Stat(savePath)
		if err != nil {
			return err
		}
		fmt.Printf("snapshot written to %s (%d bytes)\n", savePath, st.Size())
	}

	p := ix.Plan()
	fmt.Printf("plan: delta=%.3f cuts=%v expectedWorstRecall=%.3f recallMet=%v\n",
		p.Delta, p.Cuts, p.ExpectedWorstRecall, p.RecallMet)
	for _, fi := range p.FilterIndexes {
		fmt.Printf("  %s at %.3f: l=%d tables, r=%d sampled bits\n", fi.Kind, fi.Point, fi.Tables, fi.SampledBits)
	}
	if planOnly {
		return nil
	}
	if queryIdx < 0 {
		return fmt.Errorf("pass -query <line> to run a query, or -plan to stop here")
	}

	matches, stats, err := ix.QuerySID(queryIdx, lo, hi)
	if err != nil {
		return err
	}
	fmt.Printf("query set %d, range [%.2f, %.2f]: %d matches (%d candidates, %d random + %d sequential page reads, simulated I/O %v, CPU %v)\n",
		queryIdx, lo, hi, len(matches), stats.Candidates,
		stats.RandomPageReads, stats.SequentialPageReads,
		stats.SimulatedIOTime.Round(time.Microsecond), stats.CPUTime.Round(time.Microsecond))
	for i, m := range matches {
		if i >= limit {
			fmt.Printf("  ... and %d more\n", len(matches)-limit)
			break
		}
		fmt.Printf("  set %-8d similarity %.4f\n", m.SID, m.Similarity)
	}
	return nil
}

// openDurable recovers the durability directory, bootstrapping it from the
// collection file on first use.
func openDurable(walDir, path string, budget int, recall float64, k int, seed int64, shards int, walPre int64) (*ssr.Index, error) {
	has, err := ssr.HasDurableState(walDir)
	if err != nil {
		return nil, err
	}
	if has {
		start := time.Now()
		ix, err := ssr.OpenDurable(walDir, ssr.DurableOptions{PreallocBytes: walPre})
		if err != nil {
			return nil, err
		}
		fmt.Printf("recovered durable index from %s (%d sets) in %v\n", walDir, ix.Internal().Len(), time.Since(start).Round(time.Millisecond))
		return ix, nil
	}
	if path == "" {
		return nil, fmt.Errorf("%s holds no durable state; pass -data <file> to bootstrap it", walDir)
	}
	coll, err := textio.LoadCollection(path)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ix, err := ssr.CreateDurable(walDir, coll, ssr.Options{
		Budget:       budget,
		RecallTarget: recall,
		MinHashes:    k,
		Seed:         seed,
		Shards:       shards,
	}, ssr.DurableOptions{PreallocBytes: walPre})
	if err != nil {
		return nil, err
	}
	fmt.Printf("bootstrapped durable index over %d sets into %s in %v\n", coll.Len(), walDir, time.Since(start).Round(time.Millisecond))
	return ix, nil
}
