package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/queueing"
	"symbiosched/internal/scenario"
)

// Fig4Result reproduces Figure 4 and the Section VI M/M/4 example: the
// turnaround-time-vs-arrival-rate curve with its asymptote at the maximum
// throughput, and how a small service-rate increase shifts it.
type Fig4Result struct {
	// Base and Improved are the curves for mu = 1 and mu = 1.03 (the
	// paper's "3% increase in maximum throughput").
	Base, Improved []queueing.TurnaroundCurvePoint
	// Example reproduces the quoted numbers: lambda=3.5, mu=1 vs mu=1.03.
	ExampleBaseJobs, ExampleBaseTurnaround         float64
	ExampleImprovedJobs, ExampleImprovedTurnaround float64
	// TurnaroundReduction is the relative turnaround reduction at fixed
	// lambda (paper: 16%).
	TurnaroundReduction float64
}

// Fig4 evaluates the analytic M/M/4 model.
func Fig4(e *Env) (*Fig4Result, error) {
	const c = 4
	base, err := queueing.TurnaroundCurve(1.0, c, 30, 0.05, 0.97)
	if err != nil {
		return nil, err
	}
	improved, err := queueing.TurnaroundCurve(1.03, c, 30, 0.05, 0.97)
	if err != nil {
		return nil, err
	}
	r := &Fig4Result{Base: base, Improved: improved}
	q1 := queueing.MMC{Lambda: 3.5, Mu: 1, C: c}
	q2 := queueing.MMC{Lambda: 3.5, Mu: 1.03, C: c}
	if r.ExampleBaseJobs, err = q1.MeanJobs(); err != nil {
		return nil, err
	}
	if r.ExampleBaseTurnaround, err = q1.MeanTurnaround(); err != nil {
		return nil, err
	}
	if r.ExampleImprovedJobs, err = q2.MeanJobs(); err != nil {
		return nil, err
	}
	if r.ExampleImprovedTurnaround, err = q2.MeanTurnaround(); err != nil {
		return nil, err
	}
	r.TurnaroundReduction = 1 - r.ExampleImprovedTurnaround/r.ExampleBaseTurnaround
	return r, nil
}

// table lists both curves.
func (r *Fig4Result) table(name string) *scenario.Table {
	t := scenario.NewTable(name, flt("lambda"), flt("turnaround_mu1"), flt("turnaround_mu1.03"))
	for i := range r.Base {
		t.Add(r.Base[i].Lambda, r.Base[i].Turnaround, r.Improved[i].Turnaround)
	}
	return t
}

// Format renders the curve and the worked example.
func (r *Fig4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: turnaround time vs arrival rate (M/M/4)\n")
	fmt.Fprintf(&b, "  lambda   W(mu=1)   W(mu=1.03)\n")
	for i := range r.Base {
		if i%3 != 0 {
			continue
		}
		fmt.Fprintf(&b, "  %6.3f  %8.3f  %8.3f\n", r.Base[i].Lambda, r.Base[i].Turnaround, r.Improved[i].Turnaround)
	}
	fmt.Fprintf(&b, "Section VI example (lambda=3.5, mu=1 -> 1.03):\n")
	fmt.Fprintf(&b, "  jobs in system: %.1f -> %.1f   [paper: 8.7 -> 7.3]\n", r.ExampleBaseJobs, r.ExampleImprovedJobs)
	fmt.Fprintf(&b, "  turnaround:     %.1f -> %.1f   [paper: 2.5 -> 2.1]\n", r.ExampleBaseTurnaround, r.ExampleImprovedTurnaround)
	fmt.Fprintf(&b, "  reduction:      %.0f%%          [paper: 16%%]\n", 100*r.TurnaroundReduction)
	return b.String()
}
