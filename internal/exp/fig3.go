package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/core"
	"symbiosched/internal/scenario"
	"symbiosched/internal/stats"
)

// Fig3Point is one workload in the Figure 3 scatter: throughput
// variability against the linear-bottleneck least-squares error, coloured
// by the per-type WIPC difference.
type Fig3Point struct {
	Workload      string
	BottleneckErr float64 // X axis
	OptVsWorst    float64 // Y axis
	TypeWIPCDiff  float64 // colour
}

// Fig3Result reproduces Figure 3 for one configuration.
type Fig3Result struct {
	Name string
	// Corr is the Pearson correlation between the X and Y axes; the paper
	// reports "a fairly good correlation, more so for the quad-core".
	Corr float64
	// LowDiffCorr restricts the correlation to the workloads whose
	// per-type WIPC difference is below the suite median — the paper notes
	// "points with smaller IPC differences show good correlation".
	LowDiffCorr float64
	Points      []Fig3Point
}

// Fig3 computes the bottleneck scatter for both configurations.
func Fig3(e *Env) (smt, quad *Fig3Result, err error) {
	return perMachine(e, func(m Machine, sa *core.SuiteAnalysis) *Fig3Result {
		return buildFig3(e.Table(m).Name(), sa)
	})
}

func buildFig3(name string, sa *core.SuiteAnalysis) *Fig3Result {
	r := &Fig3Result{Name: name, Corr: sa.BottleneckCorr}
	var diffs []float64
	for _, a := range sa.Workloads {
		r.Points = append(r.Points, Fig3Point{
			Workload:      a.Workload.Key(),
			BottleneckErr: a.BottleneckErr,
			OptVsWorst:    a.OptimalTP / a.WorstTP,
			TypeWIPCDiff:  a.TypeWIPCDiff,
		})
		diffs = append(diffs, a.TypeWIPCDiff)
	}
	median := stats.Quantile(diffs, 0.5)
	var xs, ys []float64
	for _, p := range r.Points {
		if p.TypeWIPCDiff <= median {
			xs = append(xs, p.BottleneckErr)
			ys = append(ys, p.OptVsWorst)
		}
	}
	if len(xs) >= 2 {
		_, _, r.LowDiffCorr = stats.LinearFit(xs, ys)
	}
	return r
}

// table lists the scatter's points.
func (r *Fig3Result) table(name string) *scenario.Table {
	t := scenario.NewTable(name, str("workload"), flt("bottleneck_err"), flt("opt_vs_worst"), flt("type_wipc_diff"))
	for _, p := range r.Points {
		t.Add(p.Workload, p.BottleneckErr, p.OptVsWorst, p.TypeWIPCDiff)
	}
	return t
}

// Format renders the correlation summary and binned scatter.
func (r *Fig3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (%s): opt/worst throughput vs linear-bottleneck least-squares error\n", r.Name)
	fmt.Fprintf(&b, "  correlation: %.2f (low per-type-WIPC-diff workloads: %.2f)   [paper: \"fairly good correlation, more so for the quad-core\"]\n",
		r.Corr, r.LowDiffCorr)
	var maxErr float64
	for _, p := range r.Points {
		if p.BottleneckErr > maxErr {
			maxErr = p.BottleneckErr
		}
	}
	const bins = 8
	if maxErr == 0 {
		maxErr = 1e-12
	}
	sum := make([]float64, bins)
	diff := make([]float64, bins)
	cnt := make([]int, bins)
	for _, p := range r.Points {
		bin := int(float64(bins) * p.BottleneckErr / maxErr)
		if bin == bins {
			bin--
		}
		sum[bin] += p.OptVsWorst
		diff[bin] += p.TypeWIPCDiff
		cnt[bin]++
	}
	fmt.Fprintf(&b, "  eps^2 bin -> mean opt/worst, mean WIPC diff (n)\n")
	for i := 0; i < bins; i++ {
		if cnt[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  [%.4f, %.4f): %.3f, %.3f (%d)\n",
			maxErr*float64(i)/bins, maxErr*float64(i+1)/bins,
			sum[i]/float64(cnt[i]), diff[i]/float64(cnt[i]), cnt[i])
	}
	return b.String()
}
