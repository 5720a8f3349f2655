package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/scenario"
)

// Fig2Point is one workload's point in the Figure 2 scatter plot:
// both axes normalised to the worst scheduler's throughput.
type Fig2Point struct {
	Workload    string
	OptVsWorst  float64 // X axis
	FCFSVsWorst float64 // Y axis
	FCFSVsOpt   float64
}

// Fig2Result reproduces Figure 2 for one configuration.
type Fig2Result struct {
	Name string
	// Slope is the least-squares slope of FCFS/worst against opt/worst
	// through the point (1,1) (paper: 0.73 SMT, 0.56 quad).
	Slope float64
	// GapBridge is the mean fraction of the worst-to-best gap FCFS closes
	// (paper: 76% SMT, 63% quad).
	GapBridge float64
	Points    []Fig2Point
}

// Fig2 computes the scatter for both configurations.
func Fig2(e *Env) (smt, quad *Fig2Result, err error) {
	return perMachine(e, func(m Machine, sa *core.SuiteAnalysis) *Fig2Result {
		r := &Fig2Result{Name: e.Table(m).Name(), Slope: sa.Slope, GapBridge: sa.GapBridge}
		for _, a := range sa.Workloads {
			r.Points = append(r.Points, Fig2Point{
				Workload:    a.Workload.Key(),
				OptVsWorst:  a.OptimalTP / a.WorstTP,
				FCFSVsWorst: a.FCFSTP / a.WorstTP,
				FCFSVsOpt:   a.FCFSTP / a.OptimalTP,
			})
		}
		return r
	})
}

// table lists the scatter's points.
func (r *Fig2Result) table(name string) *scenario.Table {
	t := scenario.NewTable(name, str("workload"), flt("opt_vs_worst"), flt("fcfs_vs_worst"))
	for _, p := range r.Points {
		t.Add(p.Workload, p.OptVsWorst, p.FCFSVsWorst)
	}
	return t
}

// Format renders the regression summary and a coarse text scatter.
func (r *Fig2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 (%s): FCFS vs worst against optimal vs worst, one point per workload\n", r.Name)
	fmt.Fprintf(&b, "  slope through (1,1): %.2f   gap bridged by FCFS: %.0f%%   [paper: slope 0.73 (SMT) / 0.56 (quad); bridge 76%% / 63%%]\n",
		r.Slope, 100*r.GapBridge)
	// Coarse text scatter: bucket X into bins, print mean Y.
	const bins = 8
	minX, maxX := 1.0, 1.0
	for _, p := range r.Points {
		if p.OptVsWorst > maxX {
			maxX = p.OptVsWorst
		}
	}
	if maxX == minX {
		maxX = minX + 1e-9
	}
	sum := make([]float64, bins)
	cnt := make([]int, bins)
	for _, p := range r.Points {
		bin := int(float64(bins) * (p.OptVsWorst - minX) / (maxX - minX))
		if bin == bins {
			bin--
		}
		sum[bin] += p.FCFSVsWorst
		cnt[bin]++
	}
	fmt.Fprintf(&b, "  opt/worst bin -> mean FCFS/worst (n)\n")
	for i := 0; i < bins; i++ {
		lo := minX + (maxX-minX)*float64(i)/bins
		hi := minX + (maxX-minX)*float64(i+1)/bins
		if cnt[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  [%.3f, %.3f): %.3f (%d)\n", lo, hi, sum[i]/float64(cnt[i]), cnt[i])
	}
	return b.String()
}
