package core

import (
	"symbiosched/internal/linalg"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/workload"
)

// BottleneckError computes the paper's linear-bottleneck least-squares
// error for a workload (Section V-C.1b): find per-type full-resource rates
// R_b minimising
//
//	eps^2 = (1/|S|) * sum_s ( sum_b r_b(s)/R_b - 1 )^2 .
//
// Substituting u_b = 1/R_b makes the problem linear: minimise
// ||A u - 1||^2 with A[s][b] = r_b(s). An error of zero means a perfectly
// linear bottleneck — some critical shared resource is fully utilised in
// every coschedule and throughput is scheduler-independent (Eq. 7).
func BottleneckError(t *perfdb.Table, w workload.Workload) float64 {
	coscheds := workload.LocalCoschedules(w, t.K())
	m, n := len(coscheds), len(w)
	a := linalg.NewMatrix(m, n)
	rhs := make([]float64, m)
	for i, c := range coscheds {
		for j, b := range w {
			a.Set(i, j, t.TypeRate(c, b))
		}
		rhs[i] = 1
	}
	_, resid, err := linalg.LeastSquares(a, rhs)
	if err != nil {
		// Rank-deficient rate matrix (e.g. duplicated type behaviour):
		// treat as an exact bottleneck.
		return 0
	}
	return resid * resid / float64(m)
}

// LinearBottleneckThroughput returns the scheduler-independent average
// throughput of an exact linear bottleneck (paper Eq. 7):
// AT = N / sum_b (1/R_b), given the fitted R_b.
func LinearBottleneckThroughput(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	var inv float64
	for _, r := range rates {
		if r <= 0 {
			return 0
		}
		inv += 1 / r
	}
	return float64(len(rates)) / inv
}

// TypeWIPCDiff returns the difference between the largest and smallest
// per-type average WIPC within a workload — the colour dimension of
// Figure 3 ("difference in average WIPC between the different job types").
// A high value flags workloads whose scheduler freedom is curtailed by the
// equal-work constraint (slow types dominate execution time).
func TypeWIPCDiff(t *perfdb.Table, w workload.Workload) float64 {
	coscheds := workload.LocalCoschedules(w, t.K())
	var lo, hi float64
	for i, b := range w {
		var sum float64
		var cnt int
		for _, c := range coscheds {
			if c.Count(b) > 0 {
				sum += t.JobWIPC(c, b)
				cnt++
			}
		}
		avg := sum / float64(cnt)
		if i == 0 || avg < lo {
			lo = avg
		}
		if i == 0 || avg > hi {
			hi = avg
		}
	}
	return hi - lo
}
