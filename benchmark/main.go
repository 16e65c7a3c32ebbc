// Command benchmark is the repository's one benchmark. It builds its inputs
// from a seed, runs the named workloads through the public ssr package,
// checks every answer it can, and prints each metric by name with its unit;
// the last line of a run is the JSON object BENCHMARK.json describes. See
// README.md beside this file for the workloads and the metric tables.
//
//	go run ./benchmark -seed 1                       all workloads, end to end
//	go run ./benchmark -workload wide_range -trace 1 one workload, per layer
//	go run ./benchmark -repeat 10 -out a.json        ten runs, medians and quartiles
//	go run ./benchmark -compare a.json b.json        judge two result files
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	opt := defaults()
	name := fs.String("workload", "", "workload to run (default: all of them in turn)")
	fs.Int64Var(&opt.seed, "seed", opt.seed, "seed of the query streams and the writes")
	fs.Float64Var(&opt.seconds, "seconds", opt.seconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 records spans around each layer's exported calls and reports the per-layer metrics")
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured phase (needs -workload)")
	fs.StringVar(&opt.memProfile, "memprofile", "", "write a heap profile at the end of the run (needs -workload)")
	repeat := fs.Int("repeat", 1, "run the selection this many times, each with the next seed, and print medians and quartiles")
	out := fs.String("out", "", "also write every run's metrics to this JSON file, for -compare")
	compare := fs.Bool("compare", false, "judge two -out files given as arguments by the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	opt.trace = *trace != 0
	selected := specs
	if *name != "" {
		sp, ok := specByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []spec{sp}
	} else if opt.cpuProfile != "" || opt.memProfile != "" {
		return fmt.Errorf("-cpuprofile and -memprofile profile one workload: name it with -workload")
	}
	if *repeat > 1 || *out != "" {
		return runRepeated(os.Stdout, selected, opt, *repeat, *out)
	}
	for _, sp := range selected {
		res, err := runWorkload(sp, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		if err := res.print(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
