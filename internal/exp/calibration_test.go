package exp

import (
	"sync"
	"testing"

	"symbiosched/internal/core"
)

// Calibration tests: run the full 495-workload sweep (with the fast Markov
// FCFS reference) on the real 12-benchmark suite and pin the paper-shape
// properties of the headline statistics. These are deliberately loose
// bands — they catch regressions that would invert the paper's findings,
// not absolute-number drift. EXPERIMENTS.md records the precise values.

var (
	calOnce             sync.Once
	calSMT, calQuad     *core.SuiteAnalysis
	calSMTT2, calQuadT2 []core.HeteroClass
	calErr              error
)

func calibration(t *testing.T) (*core.SuiteAnalysis, *core.SuiteAnalysis) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-suite calibration sweep is slow")
	}
	calOnce.Do(func() {
		e := NewEnv(DefaultConfig())
		calSMT, calErr = core.AnalyzeSuite(e.Table(SMT), 4, core.AnalyzeConfig{UseMarkovFCFS: true})
		if calErr != nil {
			return
		}
		calQuad, calErr = core.AnalyzeSuite(e.Table(Quad), 4, core.AnalyzeConfig{UseMarkovFCFS: true})
		if calErr != nil {
			return
		}
		calSMTT2 = core.HeterogeneityTable(e.Table(SMT), calSMT.Workloads)
		calQuadT2 = core.HeterogeneityTable(e.Table(Quad), calQuad.Workloads)
	})
	if calErr != nil {
		t.Fatal(calErr)
	}
	return calSMT, calQuad
}

func TestCalibrationHeadlineFinding(t *testing.T) {
	smt, quad := calibration(t)
	for name, sa := range map[string]*core.SuiteAnalysis{"SMT": smt, "quad": quad} {
		// The paper's headline: per-job and per-coschedule variability far
		// exceed the scheduler's impact on average throughput.
		if sa.JobIPC.Variability() < 2*sa.AvgTP.Variability() {
			t.Errorf("%s: job IPC variability %.1f%% not >> avg TP variability %.1f%%",
				name, 100*sa.JobIPC.Variability(), 100*sa.AvgTP.Variability())
		}
		if sa.InstTP.Variability() < 2*sa.AvgTP.Variability() {
			t.Errorf("%s: inst TP variability %.1f%% not >> avg TP variability %.1f%%",
				name, 100*sa.InstTP.Variability(), 100*sa.AvgTP.Variability())
		}
		// Optimal gain over FCFS is positive but small (paper: 3-6%).
		if sa.AvgTP.AvgBest <= 0 || sa.AvgTP.AvgBest > 0.10 {
			t.Errorf("%s: optimal gain %.1f%% outside the paper's small-gain regime",
				name, 100*sa.AvgTP.AvgBest)
		}
		// The worst scheduler loses more than the optimal gains (paper:
		// -9% vs +3% on SMT).
		if -sa.AvgTP.AvgWorst < sa.AvgTP.AvgBest {
			t.Errorf("%s: worst loss %.1f%% should exceed optimal gain %.1f%%",
				name, -100*sa.AvgTP.AvgWorst, 100*sa.AvgTP.AvgBest)
		}
	}
}

func TestCalibrationFCFSBridgesGap(t *testing.T) {
	smt, quad := calibration(t)
	// Paper: FCFS closes 76% (SMT) / 63% (quad) of the worst-to-best gap,
	// with Figure 2 slopes 0.73 / 0.56.
	for name, sa := range map[string]*core.SuiteAnalysis{"SMT": smt, "quad": quad} {
		if sa.GapBridge < 0.55 || sa.GapBridge > 0.95 {
			t.Errorf("%s: FCFS bridges %.0f%% of the gap, paper band 55-95%%", name, 100*sa.GapBridge)
		}
		if sa.Slope < 0.45 || sa.Slope > 0.95 {
			t.Errorf("%s: Figure 2 slope %.2f outside the paper band", name, sa.Slope)
		}
	}
}

func TestCalibrationBottleneckCorrelation(t *testing.T) {
	smt, quad := calibration(t)
	// Paper: "fairly good correlation, and more so for the quad-core".
	if smt.BottleneckCorr < 0.5 {
		t.Errorf("SMT bottleneck correlation %.2f too weak", smt.BottleneckCorr)
	}
	if quad.BottleneckCorr < smt.BottleneckCorr-0.05 {
		t.Errorf("quad correlation %.2f should be at least SMT's %.2f",
			quad.BottleneckCorr, smt.BottleneckCorr)
	}
}

func TestCalibrationHeterogeneityMonotone(t *testing.T) {
	calibration(t)
	for name, rows := range map[string][]core.HeteroClass{"SMT": calSMTT2, "quad": calQuadT2} {
		// Table II: instantaneous throughput rises with heterogeneity.
		for i := 1; i < len(rows); i++ {
			if rows[i].AvgInstTP < rows[i-1].AvgInstTP {
				t.Errorf("%s: inst TP not monotone in heterogeneity: %+v", name, rows)
				break
			}
		}
		// The worst scheduler lives in homogeneous coschedules; the
		// optimal avoids them.
		if rows[0].Worst < 0.4 {
			t.Errorf("%s: worst scheduler uses homogeneous coschedules only %.0f%%",
				name, 100*rows[0].Worst)
		}
		if rows[0].Optimal > rows[0].Worst {
			t.Errorf("%s: optimal uses homogeneous coschedules more than worst", name)
		}
		// The worst scheduler never needs high-heterogeneity coschedules.
		if rows[3].Worst > 0.05 {
			t.Errorf("%s: worst scheduler uses 4-heterogeneous coschedules %.0f%%",
				name, 100*rows[3].Worst)
		}
	}
}

func TestCalibrationSMTInterferenceExceedsQuad(t *testing.T) {
	smt, quad := calibration(t)
	// Section V-C: the SMT core has more sharing, hence more per-job
	// sensitivity than the quad-core.
	if smt.JobIPC.Variability() < quad.JobIPC.Variability() {
		t.Errorf("SMT per-job variability %.1f%% should exceed quad's %.1f%%",
			100*smt.JobIPC.Variability(), 100*quad.JobIPC.Variability())
	}
}
