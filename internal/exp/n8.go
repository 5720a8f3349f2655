package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/core"
)

// N8Result reproduces the Section V-B observation that increasing the
// number of job types barely helps the optimal scheduler: "for 8 job types
// (N = 8), the average throughput increase of an optimal scheduler is only
// 4.5% for the SMT configuration".
type N8Result struct {
	Name string
	// OptGainN4 and OptGainN8 are the mean optimal-vs-FCFS gains.
	OptGainN4, OptGainN8 float64
	// AvgTPN8 is the N=8 average-throughput spread.
	AvgTPN8 core.SpreadStats
	// WorkloadsN8 is the number of N=8 workloads analysed (C(12,8) = 495).
	WorkloadsN8 int
}

// N8 runs the N=8 sweep on the SMT configuration (the paper quotes SMT
// numbers; pass the quad table via env customisation if desired). The N=8
// LPs have C(11,4) = 330 variables each; the FCFS reference uses the
// Markov approximation to keep the sweep fast.
func N8(e *Env) (*N8Result, error) {
	t := e.Table(SMT)
	sweep4, err := e.Sweep(SMT)
	if err != nil {
		return nil, err
	}
	sweep8, err := core.AnalyzeSuite(t, 8, core.AnalyzeConfig{
		FCFS:   core.FCFSConfig{Jobs: e.Cfg.FCFSJobs},
		Runner: e.runCfg("sweep/n8"),
	})
	if err != nil {
		return nil, err
	}
	return &N8Result{
		Name:        t.Name(),
		OptGainN4:   sweep4.AvgTP.AvgBest,
		OptGainN8:   sweep8.AvgTP.AvgBest,
		AvgTPN8:     sweep8.AvgTP,
		WorkloadsN8: len(sweep8.Workloads),
	}, nil
}

// Format renders the comparison.
func (r *N8Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section V-B, N=8 (%s, %d workloads):\n", r.Name, r.WorkloadsN8)
	fmt.Fprintf(&b, "  optimal gain over FCFS: N=4 %+.1f%%  ->  N=8 %+.1f%%   [paper: +3%% -> +4.5%%]\n",
		100*r.OptGainN4, 100*r.OptGainN8)
	fmt.Fprintf(&b, "  N=8 average TP: %s\n", r.AvgTPN8)
	return b.String()
}
