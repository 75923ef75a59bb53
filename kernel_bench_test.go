package ic2mpi_test

// Benchmark guards for the execution kernels. Two kinds of pins live
// here: host-time/memory benchmarks comparing the event scheduler
// against the goroutine-per-rank kernel, and a regression
// guard that holds the BenchmarkExchange* allocation counts documented
// in docs/benchmarks.md to their pinned values on the default kernel —
// the event-kernel and rank-state work must not cost the exchange path
// anything.

import (
	"fmt"
	"testing"

	"ic2mpi"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// BenchmarkKernelHostTime compares the host-side cost of the three
// execution kernels on the same simulated world (hex64-fine, identical
// virtual timelines). At small proc counts the goroutine kernel's
// parallelism wins; as the simulated machine grows, per-rank channels
// and scheduler churn make it fall behind the event scheduler's priority
// queues. "event" is that scheduler at one worker; "pevent" auto-sizes
// its workers, so it matches "event" on a single-core host and pulls
// ahead with real cores, worker count permitting. The crossover is the table recorded in docs/benchmarks.md.
func BenchmarkKernelHostTime(b *testing.B) {
	sc, err := scenario.Get("hex64-fine")
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{16, 256, 4096} {
		for _, kernel := range []string{"goroutine", "event", "pevent"} {
			b.Run(fmt.Sprintf("procs=%d/kernel=%s", procs, kernel), func(b *testing.B) {
				p := scenario.Params{Procs: procs, Kernel: kernel, Iterations: 10}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sc.Run(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelMemoryPerRank reports the peak host memory per
// simulated rank while each event kernel runs hex64-fine at 8192 procs —
// the flat-memory property the scale smoke test asserts a hard ceiling
// on. The custom peak-bytes/rank metric is the number to watch; the
// standard B/op column only counts cumulative allocation.
func BenchmarkKernelMemoryPerRank(b *testing.B) {
	const procs = 8192
	sc, err := scenario.Get("hex64-fine")
	if err != nil {
		b.Fatal(err)
	}
	for _, kernel := range []string{"event", "pevent"} {
		b.Run("kernel="+kernel, func(b *testing.B) {
			cfg, err := sc.Config(scenario.Params{Procs: procs, Kernel: kernel, Iterations: 3})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var peakPerRank float64
			for i := 0; i < b.N; i++ {
				peak := peakMemDuring(func() {
					if _, err := platform.Run(*cfg); err != nil {
						b.Fatal(err)
					}
				})
				if v := float64(peak) / procs; v > peakPerRank {
					peakPerRank = v
				}
			}
			b.ReportMetric(peakPerRank, "peak-bytes/rank")
		})
	}
}

// Steady-state allocation pins for the four BenchmarkExchange*
// configurations, measured with testing.AllocsPerRun on the default
// goroutine kernel. docs/benchmarks.md documents the first-run values
// (17609 / 3076 / 22814 / 5894 at -benchtime 1x); once one-time lazy
// initialization is amortized the steady state settles a few allocations
// lower for the unpooled rows. The tolerance absorbs runtime scheduling
// jitter (a handful of allocs per run) while still catching any real
// regression — losing buffer pooling alone moves the pooled rows by
// thousands.
var exchangeAllocPins = []struct {
	name   string
	procs  int
	reuse  bool
	allocs float64
}{
	{"Unpooled8", 8, false, 17591},
	{"Pooled8", 8, true, 3076},
	{"Unpooled16", 16, false, 22798},
	{"Pooled16", 16, true, 5894},
}

func TestExchangeAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pins skipped with -short")
	}
	if raceEnabled {
		t.Skip("race detector instrumentation changes allocation counts")
	}
	for _, pin := range exchangeAllocPins {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			cfg := exchangeConfig(t, pin.procs, pin.reuse)
			got := testing.AllocsPerRun(5, func() {
				if _, err := ic2mpi.Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			tol := pin.allocs * 0.02
			if diff := got - pin.allocs; diff > tol || diff < -tol {
				t.Errorf("allocs/run = %.0f, pinned %.0f (±%.0f); exchange allocation behavior changed",
					got, pin.allocs, tol)
			}
		})
	}
}
