package experiments

import (
	"strings"
	"testing"
)

// FuzzParseAxes pins the sweep-spec parser's robustness contract:
// arbitrary input must either parse into axes whose derived operations
// (Size, Single, normalize) are well-formed, or return an error — never
// panic. cmd/experiments feeds -sweep straight into this parser, so this
// is the CLI's input boundary. Seed corpus in testdata/fuzz.
func FuzzParseAxes(f *testing.F) {
	for _, spec := range []string{
		"",
		"procs=1,2,4,8",
		"procs=1,2;partitioner=metis,pagrid;exchange=basic,overlap",
		"network=hypercube,mesh2d;perturb=none,brownout,chaos@3",
		"balancer=none,centralized;iters=5,10",
		"procs=0",
		"iters=-3",
		"warp=9",
		"procs=",
		" procs = 1 , 2 ; part = metis ",
		";;;",
		"perturb=brownout@",
		"procs=1;procs=2;procs=3",
		"exchange=basic,overlap;kernel=goroutine",
		"=x",
		"procs=9999999999999999999",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ax, err := ParseAxes(spec)
		if err != nil {
			// Errors must identify the offending clause or axis.
			if !strings.Contains(err.Error(), "experiments:") {
				t.Errorf("ParseAxes(%q) error without package prefix: %v", spec, err)
			}
			return
		}
		if n := ax.Size(); n < 1 {
			t.Errorf("ParseAxes(%q) accepted but Size() = %d", spec, n)
		}
		// Single must never panic either; an error is fine (multi-value
		// axes), and success must echo only parsed values.
		if _, err := ax.Single(); err != nil {
			return
		}
		for _, v := range ax.Procs {
			if v < 1 {
				t.Errorf("ParseAxes(%q) accepted non-positive procs %d", spec, v)
			}
		}
		for _, v := range ax.Iterations {
			if v < 1 {
				t.Errorf("ParseAxes(%q) accepted non-positive iterations %d", spec, v)
			}
		}
	})
}
