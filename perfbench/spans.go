package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
)

// The traced run's instrumentation. Spans are recorded from this package
// only, around calls into the layers' public functions; nothing inside
// the program is modified. Per-call layers (the node function and the
// balancer's Plan) are aggregated as a count plus total host time under
// their parent span instead of one span per call.

// span is one timed call into a layer. Parent is the index of the
// enclosing span in tracer.spans, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls and TotalNS are set on aggregate records (node, plan).
	Calls   int64 `json:"calls,omitempty"`
	TotalNS int64 `json:"total_ns,omitempty"`
}

// tracer keeps spans in memory; write flushes them once, at the end of
// the workload run. A nil *tracer records nothing, so untraced code paths
// call the same helpers.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (or -1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// add records a span measured elsewhere and returns its index.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

// aggregate records a count-plus-total child of span parent.
func (t *tracer) aggregate(name string, op, parent int, calls, totalNS int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Calls: calls, TotalNS: totalNS})
}

// write stores the spans as JSON Lines under dir.
func (t *tracer) write(dir, file string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callAgg accumulates calls and host nanoseconds from many goroutines.
// Counters are sharded so ranks running on different cores do not
// contend on one cache line.
type callAgg struct {
	shards [64]struct {
		calls, ns atomic.Int64
		_         [48]byte
	}
}

func (a *callAgg) add(shard int, d time.Duration) {
	s := &a.shards[shard&63]
	s.calls.Add(1)
	s.ns.Add(int64(d))
}

func (a *callAgg) totals() (calls, ns int64) {
	for i := range a.shards {
		calls += a.shards[i].calls.Load()
		ns += a.shards[i].ns.Load()
	}
	return calls, ns
}

// tracedNode wraps a node function, counting calls and host time.
func tracedNode(inner platform.NodeFunc, agg *callAgg) platform.NodeFunc {
	return func(id graph.NodeID, iter, sub int, self platform.NodeData, nbrs []platform.Neighbor) (platform.NodeData, float64) {
		start := time.Now()
		out, cost := inner(id, iter, sub, self, nbrs)
		agg.add(int(id), time.Since(start))
		return out, cost
	}
}

// planAgg accumulates the traced balancer's Plan calls. The platform
// calls Plan on rank 0 only, so one goroutine writes at a time; atomics
// keep the read after the run race-free.
type planAgg struct {
	calls, ns, pairs atomic.Int64
}

func (a *planAgg) record(start time.Time, pairs int) {
	a.calls.Add(1)
	a.ns.Add(int64(time.Since(start)))
	a.pairs.Add(int64(pairs))
}

// tracedBalancer forwards Name and Plan. wrapBalancer returns one of the
// variants below so the wrapper implements exactly the optional
// interfaces the inner balancer does: a wrapper that hid
// platform.HistoryBalancer would make the predictive balancer plan
// without history and migrate differently.
type tracedBalancer struct {
	inner platform.Balancer
	agg   *planAgg
}

func (b tracedBalancer) Name() string { return b.inner.Name() }

func (b tracedBalancer) Plan(pg platform.ProcGraph) []platform.Pair {
	start := time.Now()
	pairs := b.inner.Plan(pg)
	b.agg.record(start, len(pairs))
	return pairs
}

type tracedHistory struct {
	tracedBalancer
	hist platform.HistoryBalancer
}

func (b tracedHistory) PlanWithHistory(pg platform.ProcGraph, h []platform.LoadSample) []platform.Pair {
	start := time.Now()
	pairs := b.hist.PlanWithHistory(pg, h)
	b.agg.record(start, len(pairs))
	return pairs
}

type tracedValidating struct {
	tracedBalancer
	v platform.ValidatingBalancer
}

func (b tracedValidating) Validate() error { return b.v.Validate() }

type tracedHistoryValidating struct {
	tracedHistory
	v platform.ValidatingBalancer
}

func (b tracedHistoryValidating) Validate() error { return b.v.Validate() }

// wrapBalancer wraps inner (nil stays nil) for the traced run.
func wrapBalancer(inner platform.Balancer, agg *planAgg) platform.Balancer {
	if inner == nil {
		return nil
	}
	base := tracedBalancer{inner: inner, agg: agg}
	h, isHist := inner.(platform.HistoryBalancer)
	v, isValid := inner.(platform.ValidatingBalancer)
	switch {
	case isHist && isValid:
		return tracedHistoryValidating{tracedHistory{base, h}, v}
	case isHist:
		return tracedHistory{base, h}
	case isValid:
		return tracedValidating{base, v}
	default:
		return base
	}
}

// cpuTime returns the process's user+system CPU time. The traced run
// uses it for self time: ranks run concurrently, so summed child call
// time is CPU time, and subtracting it from a wall-clock span would
// undercount the platform's own work.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's resident-set high-water mark.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
