// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed host time, checks every op's outputs against an
// in-process oracle, and prints its metrics as one JSON line.
//
//	bash perfbench/run.sh --workload mesh-coarse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 a
// traced run reports the per-layer metrics. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// runner runs one workload for secs seconds and returns its verified-op
// tally, its metrics and, for a traced run, the spans.
type runner func(seed int64, secs float64, traced bool, log io.Writer) (tally, map[string]metric, *tracer, error)

func simRunner(spec simSpec) runner {
	return func(seed int64, secs float64, traced bool, log io.Writer) (tally, map[string]metric, *tracer, error) {
		return runSim(spec, seed, secs, traced, log)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]runner{
	"mesh-coarse":   simRunner(meshCoarse),
	"rank-swarm":    simRunner(rankSwarm),
	"balance-churn": simRunner(balanceChurn),
	"daemon-mix":    runDaemon,
}

// endToEndUnits and layerUnits list every reported metric with its unit;
// BENCHMARK.json declares the same names (TestBenchmarkJSONMatches).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"updates_per_s": "1/s",
	"jobs_per_s":    "1/s",
	"op_p50_ms":     "ms",
	"op_p90_ms":     "ms",
	"max_rss_mb":    "MiB",
}

var layerUnits = map[string]string{
	"graph.build_s":              "s",
	"partition.s":                "s",
	"partition.edge_cut":         "count",
	"netmodel.build_s":           "s",
	"platform.run_s":             "s",
	"platform.self_s":            "s",
	"platform.node_calls":        "count",
	"platform.node_s":            "s",
	"platform.sequential_s":      "s",
	"platform.overhead_ratio":    "ratio",
	"platform.migrations":        "count",
	"mpi.messages":               "count",
	"mpi.bytes":                  "B",
	"mpi.msgs_per_host_s":        "1/s",
	"mpi.run_s.goroutine":        "s",
	"mpi.run_s.event":            "s",
	"mpi.run_s.pevent":           "s",
	"balance.plan_calls":         "count",
	"balance.plan_s":             "s",
	"balance.pairs":              "count",
	"balance.useful_ratio":       "ratio",
	"checkpoint.snapshots":       "count",
	"checkpoint.bytes":           "B",
	"checkpoint.encode_s":        "s",
	"checkpoint.decode_s":        "s",
	"checkpoint.resume_s":        "s",
	"trace.samples":              "count",
	"trace.bytes":                "B",
	"trace.encode_s":             "s",
	"experiments.cells":          "count",
	"experiments.oracle_s":       "s",
	"experiments.encode_s":       "s",
	"server.submit_ms":           "ms",
	"server.queue_ms":            "ms",
	"server.run_ms":              "ms",
	"server.stream_ms":           "ms",
	"server.result_ms":           "ms",
	"server.cache_hit_ratio":     "ratio",
	"runtime.alloc_mb_per_op":    "MiB",
	"runtime.gc_per_op":          "count",
	"bench.trace_overhead_ratio": "ratio",
}

// complete checks a workload's metrics against the declared list and
// reports the layers the workload bypasses as 0.
func complete(m map[string]metric, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := m[name]
		if !ok {
			v = metric{0, unit}
		}
		if v.Unit != unit {
			return nil, fmt.Errorf("metric %s has unit %q, declared %q", name, v.Unit, unit)
		}
		out[name] = v
	}
	for name := range m {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload name: mesh-coarse, rank-swarm, balance-churn or daemon-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Float64("seconds", 10, "host seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	spanDir := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()
	if err := run(*workload, *seed, *secs, *traceFlag, *spanDir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs float64, traceFlag int, spanDir string, stdout io.Writer) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if secs <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", secs)
	}
	traced := traceFlag == 1
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d host_cores=%d gomaxprocs=%d go=%s\n",
		workload, seed, secs, traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	t, m, tr, err := fn(seed, secs, traced, stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# verified ops: attempted=%d failed=%d failed_frac=%g\n", t.attempted, t.failed, t.failedFrac())
	if t.firstErr != nil {
		fmt.Fprintf(stdout, "# first failure: %v\n", t.firstErr)
	}
	units := endToEndUnits
	if traced {
		units = layerUnits
		if err := tr.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if m, err = complete(m, units); err != nil {
		return err
	}
	return printResult(stdout, t, m)
}
