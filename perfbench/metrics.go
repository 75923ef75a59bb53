package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts verified ops. Every op's outputs go through a checker; a
// mismatch counts the op as failed and the run goes on.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// failedFrac is failed / attempted ops.
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile up to p90 that has at least ten
// samples beyond it.
func tailQuantile(n int) float64 {
	q := 0.9
	if n > 0 {
		if alt := 1 - 10/float64(n); alt < q {
			q = alt
		}
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta samples allocation and GC counters around a loop.
type memDelta struct{ alloc, gcs uint64 }

func memSnapshot() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{alloc: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
}

// perOp returns MiB allocated and GC cycles per op since m.
func (m memDelta) perOp(ops int) (allocMiB, gcs float64) {
	now := memSnapshot()
	if ops == 0 {
		return 0, 0
	}
	return float64(now.alloc-m.alloc) / (1 << 20) / float64(ops), float64(now.gcs-m.gcs) / float64(ops)
}

// endToEnd assembles the end-to-end metrics every workload reports.
// opDurs are the timed ops; window is the host time the ops took as the
// user sees it (their sum for a single caller, the wall window for
// concurrent clients); updates are the node updates they delivered.
func endToEnd(setup float64, opDurs []time.Duration, window time.Duration, updates int64, out io.Writer) map[string]metric {
	ms := millis(opDurs)
	q := tailQuantile(len(ms))
	fmt.Fprintf(out, "# ops=%d tail percentile for op_p90_ms: p%g\n", len(ms), math.Round(q*1000)/10)
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"updates_per_s": {ratio(float64(updates), window.Seconds()), "1/s"},
		"jobs_per_s":    {ratio(float64(len(opDurs)), window.Seconds()), "1/s"},
		"op_p50_ms":     {median(ms), "ms"},
		"op_p90_ms":     {quantile(ms, q), "ms"},
		"max_rss_mb":    {maxRSSMiB(), "MiB"},
	}
}

// printResult writes the final output line.
func printResult(w io.Writer, t tally, metrics map[string]metric) error {
	line, err := json.Marshal(result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
