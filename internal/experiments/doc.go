// Package experiments regenerates the thesis' evaluation (Section 5) and
// runs generic parameter sweeps over registered scenarios, producing
// machine-readable reports.
//
// Two entry points:
//
//   - The paper registry (Registry, Run, IDs) addresses every table and
//     figure of the evaluation by its paper ID ("table2", "fig17", ...):
//     execution-time tables for hexagonal grids, random graphs and the
//     battlefield simulation, speedup figures for static partitioners,
//     Metis-vs-PaGrid comparisons, static-vs-dynamic load balancing
//     comparisons, and the platform overhead breakdowns. All of them are
//     thin compositions over the scenario registry and the sweep
//     primitives in this package.
//
//   - The sweep engine (Axes, ParseAxes, RunSweep) runs the cartesian
//     product of a scenario's configuration axes — processor count,
//     static partitioner, exchange mode, dynamic balancer, interconnect
//     model, iteration count — and reports one SweepRow of metrics per
//     combination.
//
// Sweep runs execute concurrently on a bounded worker pool (Parallelism);
// rows are always assembled in deterministic axis order, so parallelism
// changes host wall-clock only, never output bytes.
//
// Every report kind (Table, Figure, SweepReport) renders as aligned text
// and encodes to stable JSON and CSV through WriteReport; because the
// platform runs in deterministic virtual time, re-encoding the same
// experiment produces byte-identical output, which CI exploits to archive
// sweeps as comparable artifacts.
package experiments
