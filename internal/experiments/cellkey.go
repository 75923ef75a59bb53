package experiments

import (
	"fmt"

	"ic2mpi/internal/scenario"
)

// CellKey returns the stable cache key of one sweep cell: the scenario
// name plus every normalized parameter that selects the deterministic
// run — processor count, partitioner, exchange mode, balancer,
// interconnect model, fault-injection schedule (seed included),
// execution kernel, iteration count and the balancing schedule. Because
// every run is a pure function of this tuple, two cells with equal keys
// produce byte-identical results; the daemon's LRU cache relies on that.
//
// Parameters are normalized first, so a zero-value axis ("" or 0) and the
// scenario default it resolves to share one key. The key is versioned
// ("v1|...") so a future change to run semantics can invalidate persisted
// keys by bumping the prefix.
func CellKey(sc scenario.Scenario, p scenario.Params) (string, error) {
	np, err := sc.Normalize(p)
	if err != nil {
		return "", err
	}
	// The fixed buffers=pooled term keeps keys persisted before the
	// exchange lost its unpooled mode valid: those runs are unchanged.
	return fmt.Sprintf("v1|%s|procs=%d|part=%s|exchange=%s|buffers=pooled|balancer=%s|network=%s|perturb=%s|kernel=%s|iters=%d|balevery=%d|balrounds=%d",
		sc.Name, np.Procs, np.Partitioner, np.Exchange, np.Balancer,
		np.Network, np.Perturb, np.Kernel, np.Iterations, np.BalanceEvery, np.BalanceRounds), nil
}
