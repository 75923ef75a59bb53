package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// The generic sweep engine: a cartesian sweep of one scenario over the
// platform's configuration axes (processor count, static partitioner,
// exchange mode, dynamic balancer, interconnect model, fault-injection
// schedule, execution kernel, iteration count), producing a
// machine-readable SweepReport. The paper's tables and figures are
// special cases of this engine; `cmd/experiments -scenario` exposes it
// directly.

// Axes enumerates the parameter values a sweep visits; the cartesian
// product of all axes is run. An empty string (or 0 for the numeric axes)
// selects the scenario's default for that axis.
type Axes struct {
	// Procs is the processor-count axis.
	Procs []int `json:"procs"`
	// Partitioners is the static-partitioner axis (scenario.Partitioners
	// names the accepted values).
	Partitioners []string `json:"partitioners"`
	// Exchanges is the exchange-mode axis ("basic", "overlap").
	Exchanges []string `json:"exchanges"`
	// Balancers is the dynamic-balancer axis (scenario.Balancers names the
	// accepted values).
	Balancers []string `json:"balancers"`
	// Networks is the interconnect-model axis (netmodel.Names names the
	// accepted values).
	Networks []string `json:"networks"`
	// Perturbs is the fault-injection axis (fault.Names names the
	// accepted schedule specs, each optionally suffixed "@<seed>").
	Perturbs []string `json:"perturbs"`
	// Kernels is the mpi execution-engine axis (mpi.KernelNames lists the
	// accepted values); all kernels produce bit-identical virtual
	// timelines, so this axis exists for differential testing and for
	// host-time comparisons.
	Kernels []string `json:"kernels"`
	// Iterations is the iteration-count axis.
	Iterations []int `json:"iterations"`
}

// DefaultAxes sweeps the paper's processor counts with every other axis
// at the scenario's default.
func DefaultAxes() Axes {
	return Axes{
		Procs:        append([]int(nil), Procs...),
		Partitioners: []string{""},
		Exchanges:    []string{""},
		Balancers:    []string{""},
		Networks:     []string{""},
		Perturbs:     []string{""},
		Kernels:      []string{""},
		Iterations:   []int{0},
	}
}

// Normalize fills empty axes with the single "scenario default" value, so
// the result records the exact space Cells enumerates (shard manifests
// encode it).
func (ax Axes) Normalize() Axes {
	if len(ax.Procs) == 0 {
		ax.Procs = append([]int(nil), Procs...)
	}
	if len(ax.Partitioners) == 0 {
		ax.Partitioners = []string{""}
	}
	if len(ax.Exchanges) == 0 {
		ax.Exchanges = []string{""}
	}
	if len(ax.Balancers) == 0 {
		ax.Balancers = []string{""}
	}
	if len(ax.Networks) == 0 {
		ax.Networks = []string{""}
	}
	if len(ax.Perturbs) == 0 {
		ax.Perturbs = []string{""}
	}
	if len(ax.Kernels) == 0 {
		ax.Kernels = []string{""}
	}
	if len(ax.Iterations) == 0 {
		ax.Iterations = []int{0}
	}
	return ax
}

// Size returns the number of runs the sweep performs.
func (ax Axes) Size() int {
	ax = ax.Normalize()
	return len(ax.Procs) * len(ax.Partitioners) * len(ax.Exchanges) *
		len(ax.Balancers) * len(ax.Networks) * len(ax.Perturbs) *
		len(ax.Kernels) * len(ax.Iterations)
}

// ParseAxes parses a sweep specification of semicolon-separated
// axis=value,value pairs, e.g.
//
//	procs=1,2,4,8;partitioner=metis,pagrid;network=uniform,hypercube
//
// Accepted axis names: procs, partitioner, exchange, balancer, network,
// perturb, kernel, iters (singular and plural forms both work).
// Unspecified axes stay at the scenario's default.
func ParseAxes(spec string) (Axes, error) {
	ax := Axes{}
	if strings.TrimSpace(spec) == "" {
		return ax, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, list, ok := strings.Cut(clause, "=")
		if !ok {
			return ax, fmt.Errorf("experiments: sweep clause %q is not axis=value,...", clause)
		}
		var vals []string
		for _, v := range strings.Split(list, ",") {
			if v = strings.TrimSpace(v); v != "" {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return ax, fmt.Errorf("experiments: sweep axis %q has no values", key)
		}
		switch strings.TrimSpace(key) {
		case "procs", "proc":
			for _, v := range vals {
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return ax, fmt.Errorf("experiments: bad procs value %q", v)
				}
				ax.Procs = append(ax.Procs, n)
			}
		case "iters", "iterations":
			for _, v := range vals {
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return ax, fmt.Errorf("experiments: bad iterations value %q", v)
				}
				ax.Iterations = append(ax.Iterations, n)
			}
		case "partitioner", "partitioners", "part":
			ax.Partitioners = vals
		case "exchange", "exchanges":
			ax.Exchanges = vals
		case "balancer", "balancers":
			ax.Balancers = vals
		case "network", "networks":
			ax.Networks = vals
		case "perturb", "perturbs":
			ax.Perturbs = vals
		case "kernel", "kernels":
			ax.Kernels = vals
		default:
			return ax, fmt.Errorf("experiments: unknown sweep axis %q (known: procs, partitioner, exchange, balancer, network, perturb, kernel, iters)", key)
		}
	}
	return ax, nil
}

// SweepRow is one run of a sweep: the scenario result plus the speedup
// relative to the 1-processor run with identical remaining parameters
// (0 when the sweep has no 1-processor baseline).
type SweepRow struct {
	scenario.Result
	Speedup float64 `json:"speedup"`
}

// SweepReport is the machine-readable result of one sweep, ordered
// deterministically: iterations, partitioner, exchange, balancer,
// network, perturbation, kernel, then processor count, each in axis order.
type SweepReport struct {
	// ID is the report identifier ("sweep-<scenario>").
	ID string `json:"id"`
	// Title is the human-readable headline.
	Title string `json:"title"`
	// Scenario is the swept scenario's name.
	Scenario string `json:"scenario"`
	// Rows holds one entry per parameter combination.
	Rows []SweepRow `json:"rows"`
	// Notes carries caveats for the reader.
	Notes string `json:"notes,omitempty"`
}

// Single converts a sweep specification in which every axis has at most
// one value into the parameters of that single run (unset axes stay at
// the scenario's default). It errors when any axis holds multiple values.
func (ax Axes) Single() (scenario.Params, error) {
	var p scenario.Params
	if len(ax.Procs) > 1 || len(ax.Partitioners) > 1 || len(ax.Exchanges) > 1 ||
		len(ax.Balancers) > 1 || len(ax.Networks) > 1 || len(ax.Perturbs) > 1 ||
		len(ax.Kernels) > 1 || len(ax.Iterations) > 1 {
		return p, fmt.Errorf("experiments: expected a single parameter combination, got a %d-run sweep", ax.Size())
	}
	if len(ax.Procs) == 1 {
		p.Procs = ax.Procs[0]
	}
	if len(ax.Partitioners) == 1 {
		p.Partitioner = ax.Partitioners[0]
	}
	if len(ax.Exchanges) == 1 {
		p.Exchange = ax.Exchanges[0]
	}
	if len(ax.Balancers) == 1 {
		p.Balancer = ax.Balancers[0]
	}
	if len(ax.Networks) == 1 {
		p.Network = ax.Networks[0]
	}
	if len(ax.Perturbs) == 1 {
		p.Perturb = ax.Perturbs[0]
	}
	if len(ax.Kernels) == 1 {
		p.Kernel = ax.Kernels[0]
	}
	if len(ax.Iterations) == 1 {
		p.Iterations = ax.Iterations[0]
	}
	return p, nil
}

// RunTraced executes the single parameter combination described by ax
// (every axis at most one value; unset axes at the scenario's default)
// with rec attached as the run's trace recorder, and returns a one-row
// sweep report of the run's aggregate metrics. The per-iteration series
// lives in rec afterwards.
func RunTraced(sc scenario.Scenario, ax Axes, rec *trace.Recorder) (*SweepReport, error) {
	p, err := ax.Single()
	if err != nil {
		return nil, err
	}
	p.Trace = rec
	res, err := sc.Run(p)
	if err != nil {
		return nil, err
	}
	return &SweepReport{
		ID:       "sweep-" + sc.Name,
		Title:    fmt.Sprintf("Sweep of scenario %s: %s", sc.Name, sc.Description),
		Scenario: sc.Name,
		Rows:     []SweepRow{{Result: *res}},
	}, nil
}

// Cells enumerates the sweep's parameter combinations in deterministic
// axis order: iterations, partitioner, exchange, balancer, network,
// perturbation, kernel, then processor count innermost — so each
// contiguous chunk of len(ax.Procs) cells forms one speedup group. This
// is the exact run order RunSweep assembles rows in, and the unit the
// daemon's result cache keys on (one CellKey per cell).
func (ax Axes) Cells() []scenario.Params {
	ax = ax.Normalize()
	params := make([]scenario.Params, 0, ax.Size())
	for _, iters := range ax.Iterations {
		for _, part := range ax.Partitioners {
			for _, ex := range ax.Exchanges {
				for _, bal := range ax.Balancers {
					for _, netw := range ax.Networks {
						for _, pert := range ax.Perturbs {
							for _, kern := range ax.Kernels {
								for _, procs := range ax.Procs {
									params = append(params, scenario.Params{
										Procs:       procs,
										Partitioner: part,
										Exchange:    ex,
										Balancer:    bal,
										Network:     netw,
										Perturb:     pert,
										Kernel:      kern,
										Iterations:  iters,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return params
}

// CellRunner executes one sweep cell: cell i of the Cells() enumeration,
// at parameters p. RunSweepWith calls it concurrently from the bounded
// worker pool; implementations must be safe for that.
type CellRunner func(sc scenario.Scenario, i int, p scenario.Params) (*scenario.Result, error)

// RunSweep executes the cartesian sweep of sc over ax. Runs execute
// concurrently on the bounded worker pool (see Parallelism), but rows are
// assembled in deterministic axis order, so the report — and any encoding
// of it — is byte-identical at any parallelism.
func RunSweep(sc scenario.Scenario, ax Axes) (*SweepReport, error) {
	return RunSweepWith(sc, ax, func(sc scenario.Scenario, _ int, p scenario.Params) (*scenario.Result, error) {
		return sc.Run(p)
	})
}

// RunSweepWith is RunSweep with a custom per-cell runner — the seam the
// daemon's cell cache plugs into: a runner may serve a cell from a cache
// instead of simulating it, and because every run is a pure function of
// its normalized parameters, the assembled report is byte-identical
// either way.
func RunSweepWith(sc scenario.Scenario, ax Axes, run CellRunner) (*SweepReport, error) {
	ax = ax.Normalize()
	rep := &SweepReport{
		ID:       "sweep-" + sc.Name,
		Title:    fmt.Sprintf("Sweep of scenario %s: %s", sc.Name, sc.Description),
		Scenario: sc.Name,
	}
	params := ax.Cells()
	results, err := runCellsAll(sc, params, run)
	if err != nil {
		return nil, err
	}
	for g := 0; g < len(results); g += len(ax.Procs) {
		group := make([]SweepRow, 0, len(ax.Procs))
		for _, res := range results[g : g+len(ax.Procs)] {
			group = append(group, SweepRow{Result: *res})
		}
		// Speedups relative to the group's 1-processor run.
		var base float64
		for _, row := range group {
			if row.Params.Procs == 1 {
				base = row.Elapsed
				break
			}
		}
		for i := range group {
			if base > 0 && group[i].Elapsed > 0 {
				group[i].Speedup = base / group[i].Elapsed
			}
		}
		rep.Rows = append(rep.Rows, group...)
	}
	return rep, nil
}

// Format renders the sweep as an aligned text table.
func (r *SweepReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "%6s %12s %8s %19s %9s %10s %6s %12s %8s %9s %11s %9s\n",
		"procs", "partitioner", "exchange", "balancer", "network", "perturb", "iters",
		"elapsed_s", "speedup", "edge_cut", "migrations", "msgs")
	for _, row := range r.Rows {
		p := row.Params
		fmt.Fprintf(&b, "%6d %12s %8s %19s %9s %10s %6d %12.4f %8.2f %9d %11d %9d\n",
			p.Procs, p.Partitioner, p.Exchange, p.Balancer, p.Network, p.Perturb, p.Iterations,
			row.Elapsed, row.Speedup, row.EdgeCut, row.Migrations, row.MessagesSent)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	return b.String()
}

// String implements fmt.Stringer.
func (r *SweepReport) String() string { return r.Format() }

// ScenarioList renders the registered scenarios for `-list`, sorted by
// name (the order scenario.List returns).
func ScenarioList() string {
	var b strings.Builder
	list := scenario.List()
	width := 0
	for _, sc := range list {
		if len(sc.Name) > width {
			width = len(sc.Name)
		}
	}
	for _, sc := range list {
		fmt.Fprintf(&b, "%-*s  %s\n", width, sc.Name, sc.Description)
	}
	return b.String()
}
