// Package scenario is the named-workload registry of the iC2mpi
// platform: the single source of truth that examples, benchmarks and the
// experiments sweep engine draw their workloads from.
//
// A Scenario bundles everything one platform workload needs — the
// application program graph generator, the initial node data, the node
// computation function (or, for non-platform workloads such as the BSP
// PageRank, a custom runner) and default execution parameters. Scenarios
// are registered once under a unique name (Register) and resolved by name
// anywhere (Lookup, List), so adding a workload to the whole toolchain —
// `cmd/experiments -scenario`, the sweep engine, docs/scenarios.md — is
// one Register call.
//
// The registered set covers the paper's evaluation workloads (hexagonal
// grids and random graphs at fine/coarse grain, the Fig. 23 dynamic
// imbalance schedule, the battlefield simulation) plus application
// scenarios that stress other platform features: heat diffusion with a
// user-defined NodeData type, Game of Life on a Moore-neighborhood grid,
// single-source shortest paths, and PageRank on the BSP superstep layer.
//
// Params selects one point of a scenario's configuration space (processor
// count, partitioner, exchange mode, balancer, interconnect model,
// iterations); Scenario.Run executes that point and returns a flat,
// machine-readable Result. All execution is in deterministic virtual
// time: running the same (scenario, params) twice yields byte-identical
// results.
package scenario
