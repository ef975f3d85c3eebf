// Command benchmark measures the simulator end to end and layer by
// layer on four workloads, and checks every result it measures.
//
// Build and run it from the repository root through run.sh, which
// builds this module against the program in the same checkout:
//
//	bash benchmark/run.sh -seed 1 -out run.json
//	bash benchmark/run.sh -workload fleet-1k -seed 3 -trace 1 -spans spans.json
//	bash benchmark/run.sh -compare base1.json,base2.json,base3.json head1.json,head2.json,head3.json
//
// See README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: paper-fig7 | fleet-1k | fair-dense | chaos-resume | all")
		seed    = fs.Int64("seed", 1, "seed of the fleet-1k and chaos-resume inputs (paper-fig7 and fair-dense have fixed inputs)")
		seconds = fs.Float64("seconds", 0, "host seconds the pass runs ops for (default: run_seconds of -bench)")
		trace   = fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		out     = fs.String("out", "", "write the full report as JSON to this file")
		spans   = fs.String("spans", "", "write the traced pass's spans as JSON to this file")
		workdir = fs.String("workdir", "benchmark/.bench_build", "directory to keep the run's scratch files in, in a subdirectory removed at exit")
		compare = fs.Bool("compare", false, "compare runs: -compare base1.json[,base2.json...] head1.json[,head2.json...]")
		bench   = fs.String("bench", "BENCHMARK.json", "benchmark definition holding run_seconds and the bounds -compare applies")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(*bench, fs.Args(), stdout, stderr)
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace %d: want 0 or 1\n", *trace)
		return 2
	}
	var selected []workload
	for _, w := range workloadList {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds == 0 {
		var bf benchmarkFile
		if err := readJSON(*bench, &bf); err != nil {
			return fail(err)
		}
		*seconds = bf.RunSeconds
	}
	o := options{seed: *seed, seconds: *seconds}
	if *trace == 1 {
		o.tr = newTracer()
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	o.dir = dir

	rep := &report{Seed: *seed, Seconds: *seconds, Trace: *trace, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	for _, w := range selected {
		wr, err := measure(w, o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		wr.print(stdout)
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return fail(err)
		}
	}
	if *spans != "" && o.tr != nil {
		if err := writeJSON(*spans, o.tr.spans); err != nil {
			return fail(err)
		}
	}
	line := rep.resultLine()
	enc, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
