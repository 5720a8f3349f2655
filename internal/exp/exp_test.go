package exp

import (
	"math"
	"strings"
	"sync"
	"testing"

	"symbiosched/internal/program"
	"symbiosched/internal/sched"
)

// miniEnv uses a 6-benchmark suite (15 N=4 workloads) and small simulation
// sizes so the whole experiment stack runs in seconds.
var (
	envOnce sync.Once
	envMini *Env
)

func miniEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		suite := program.Suite()
		cfg := DefaultConfig()
		cfg.Suite = []program.Profile{suite[1], suite[3], suite[5], suite[6], suite[7], suite[11]}
		cfg.FCFSJobs = 6000
		cfg.SimJobs = 4000
		cfg.SampleWorkloads = 6
		envMini = NewEnv(cfg)
	})
	return envMini
}

func TestTable1(t *testing.T) {
	e := miniEnv(t)
	rows := Table1(e)
	if len(rows) != len(e.Cfg.Suite) {
		t.Fatalf("got %d rows, want %d", len(rows), len(e.Cfg.Suite))
	}
	for _, r := range rows {
		if r.SoloIPCSMT <= 0 || r.SoloIPCQuad <= 0 {
			t.Errorf("%s: non-positive solo IPC", r.ID)
		}
		if r.CacheSensitivity < 0 || r.CacheSensitivity > 1 {
			t.Errorf("%s: sensitivity %v outside [0,1]", r.ID, r.CacheSensitivity)
		}
	}
	if out := FormatTable1(rows); !strings.Contains(out, "Table I") {
		t.Error("FormatTable1 missing header")
	}
}

func TestFig1Structure(t *testing.T) {
	e := miniEnv(t)
	r, err := Fig1(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []ConfigVariability{r.SMT, r.Quad} {
		if cfg.JobIPC.AvgBest < 0 || cfg.JobIPC.AvgWorst > 0 {
			t.Errorf("%s: job IPC spread inverted: %+v", cfg.Name, cfg.JobIPC)
		}
		if cfg.InstTP.AvgBest < 0 || cfg.InstTP.AvgWorst > 0 {
			t.Errorf("%s: inst TP spread inverted: %+v", cfg.Name, cfg.InstTP)
		}
		// The paper's core finding: average-TP variability is far below
		// per-job and per-coschedule variability.
		if cfg.AvgTP.Variability() > cfg.JobIPC.Variability() {
			t.Errorf("%s: avg TP variability %v exceeds job IPC variability %v — paper's finding inverted",
				cfg.Name, cfg.AvgTP.Variability(), cfg.JobIPC.Variability())
		}
	}
	if out := r.Format(); !strings.Contains(out, "Figure 1") {
		t.Error("Format missing header")
	}
}

func TestFig2Structure(t *testing.T) {
	e := miniEnv(t)
	smt, quad, err := Fig2(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Fig2Result{smt, quad} {
		if len(r.Points) == 0 {
			t.Fatalf("%s: no points", r.Name)
		}
		for _, p := range r.Points {
			if p.OptVsWorst < 1-1e-9 {
				t.Errorf("%s: optimal below worst for %s", r.Name, p.Workload)
			}
			// FCFS must lie between worst (1.0) and optimal.
			if p.FCFSVsWorst < 0.99 || p.FCFSVsWorst > p.OptVsWorst*1.01 {
				t.Errorf("%s: FCFS/worst %v outside [1, %v] for %s",
					r.Name, p.FCFSVsWorst, p.OptVsWorst, p.Workload)
			}
		}
		if r.GapBridge < 0 || r.GapBridge > 1.05 {
			t.Errorf("%s: gap bridge %v", r.Name, r.GapBridge)
		}
		if out := r.Format(); !strings.Contains(out, "Figure 2") {
			t.Error("Format missing header")
		}
	}
}

func TestFig3Structure(t *testing.T) {
	e := miniEnv(t)
	smt, quad, err := Fig3(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Fig3Result{smt, quad} {
		for _, p := range r.Points {
			if p.BottleneckErr < 0 || p.TypeWIPCDiff < 0 {
				t.Errorf("%s: negative axis value %+v", r.Name, p)
			}
		}
		if math.IsNaN(r.Corr) {
			t.Errorf("%s: NaN correlation", r.Name)
		}
		if out := r.Format(); !strings.Contains(out, "Figure 3") {
			t.Error("Format missing header")
		}
	}
}

func TestTable2Structure(t *testing.T) {
	e := miniEnv(t)
	smt, _, err := Table2(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(smt.Rows) != 4 {
		t.Fatalf("got %d rows", len(smt.Rows))
	}
	var fcfs, opt, worst float64
	for _, row := range smt.Rows {
		fcfs += row.FCFS
		opt += row.Optimal
		worst += row.Worst
		if row.AvgInstTP <= 0 {
			t.Errorf("class %d: non-positive inst TP", row.Heterogeneity)
		}
	}
	for name, sum := range map[string]float64{"FCFS": fcfs, "optimal": opt, "worst": worst} {
		if math.Abs(sum-1) > 0.03 {
			t.Errorf("%s fractions sum to %v", name, sum)
		}
	}
	// The paper's worst scheduler lives in homogeneous coschedules.
	if smt.Rows[0].Worst < smt.Rows[3].Worst {
		t.Errorf("worst scheduler should prefer homogeneous coschedules: %+v", smt.Rows)
	}
	if out := smt.Format(); !strings.Contains(out, "Table II") {
		t.Error("Format missing header")
	}
}

func TestFig4PaperExample(t *testing.T) {
	e := miniEnv(t)
	r, err := Fig4(e)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ExampleBaseJobs-8.7) > 0.1 || math.Abs(r.ExampleBaseTurnaround-2.5) > 0.05 {
		t.Errorf("base example: L=%v W=%v, paper: 8.7 / 2.5", r.ExampleBaseJobs, r.ExampleBaseTurnaround)
	}
	if math.Abs(r.TurnaroundReduction-0.16) > 0.01 {
		t.Errorf("reduction %v, paper: 16%%", r.TurnaroundReduction)
	}
	if len(r.Base) != len(r.Improved) || len(r.Base) == 0 {
		t.Fatal("curves missing")
	}
	if out := r.Format(); !strings.Contains(out, "Figure 4") {
		t.Error("Format missing header")
	}
}

func TestFig5Structure(t *testing.T) {
	e := miniEnv(t)
	r, err := Fig5(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(sched.Names)*len(Fig5Loads) {
		t.Fatalf("got %d cells", len(r.Cells))
	}
	for _, load := range Fig5Loads {
		c, ok := r.Cell("FCFS", load)
		if !ok {
			t.Fatalf("missing FCFS cell at load %v", load)
		}
		if math.Abs(c.TurnaroundVsFCFS-1) > 1e-9 {
			t.Errorf("FCFS normalised turnaround %v != 1", c.TurnaroundVsFCFS)
		}
		for _, name := range sched.Names {
			c, _ := r.Cell(name, load)
			if c.Utilisation <= 0 || c.Utilisation > 4 {
				t.Errorf("%s@%v: utilisation %v", name, load, c.Utilisation)
			}
			if c.EmptyFraction < 0 || c.EmptyFraction > 1 {
				t.Errorf("%s@%v: empty fraction %v", name, load, c.EmptyFraction)
			}
		}
	}
	// Higher load -> lower empty fraction (FCFS).
	lo, _ := r.Cell("FCFS", 0.8)
	hi, _ := r.Cell("FCFS", 0.95)
	if hi.EmptyFraction >= lo.EmptyFraction {
		t.Errorf("empty fraction should fall with load: %v -> %v", lo.EmptyFraction, hi.EmptyFraction)
	}
	if out := r.Format(); !strings.Contains(out, "Figure 5") {
		t.Error("Format missing header")
	}
}

func TestFig6Structure(t *testing.T) {
	e := miniEnv(t)
	r, err := Fig6(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range r.Points {
		if p.TheoreticalMin > 1.02 {
			t.Errorf("%s: theoretical min %v above FCFS", p.Workload, p.TheoreticalMin)
		}
		if p.MAXTP > p.TheoreticalMax*1.02 {
			t.Errorf("%s: MAXTP %v above the theoretical max %v", p.Workload, p.MAXTP, p.TheoreticalMax)
		}
	}
	// Paper: MAXTP ~ LP max; SRPT ~ FCFS.
	if r.MAXTPGapToOptimal > 0.03 {
		t.Errorf("MAXTP gap to optimal %v too large", r.MAXTPGapToOptimal)
	}
	if math.Abs(r.MeanSRPT-1) > 0.03 {
		t.Errorf("SRPT mean %v should be ~1 (= FCFS)", r.MeanSRPT)
	}
	if out := r.Format(); !strings.Contains(out, "Figure 6") {
		t.Error("Format missing header")
	}
}

func TestFairnessStructure(t *testing.T) {
	e := miniEnv(t)
	r, err := Fairness(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.OptGain < -1e-9 {
		t.Errorf("equalisation should not reduce mean optimal TP: %v", r.OptGain)
	}
	if r.HeteroFractionAfter < r.HeteroFractionBefore {
		t.Errorf("hetero fraction should rise: %v -> %v", r.HeteroFractionBefore, r.HeteroFractionAfter)
	}
	if math.Abs(r.WorstChange) > 0.02 {
		t.Errorf("worst scheduler should be (nearly) unchanged, moved %v", r.WorstChange)
	}
	if out := r.Format(); !strings.Contains(out, "fairness") {
		t.Error("Format missing header")
	}
}

func TestUarchStudy(t *testing.T) {
	e := miniEnv(t)
	r, err := Uarch(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MeanFCFS) != 4 || len(r.MeanOptimal) != 4 {
		t.Fatal("wrong policy count")
	}
	for i := range r.MeanFCFS {
		if r.MeanOptimal[i] < r.MeanFCFS[i]-1e-9 {
			t.Errorf("policy %s: optimal %v below FCFS %v",
				UarchPolicies[i].Name(), r.MeanOptimal[i], r.MeanFCFS[i])
		}
	}
	// Section VII: ICOUNT/dynamic wins under both scheduler assumptions.
	if r.BestPolicyFCFS != "ICOUNT/dynamic" {
		t.Errorf("best FCFS policy %s, paper: ICOUNT/dynamic", r.BestPolicyFCFS)
	}
	if r.GainOverRRStaticFCFS <= 0 {
		t.Errorf("ICOUNT/dynamic gain over RR/static %v should be positive", r.GainOverRRStaticFCFS)
	}
	if r.RankingChanged < 0 || r.RankingChanged > 1 {
		t.Errorf("ranking-changed fraction %v", r.RankingChanged)
	}
	if out := r.Format(); !strings.Contains(out, "Section VII") {
		t.Error("Format missing header")
	}
}

func TestEnvCaching(t *testing.T) {
	e := miniEnv(t)
	if e.Table(SMT) != e.Table(SMT) {
		t.Error("SMT table not cached")
	}
	s1, err := e.Sweep(SMT)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := e.Sweep(SMT)
	if s1 != s2 {
		t.Error("sweep not cached")
	}
}

func TestMakespanExperiment(t *testing.T) {
	e := miniEnv(t)
	r, err := MakespanExperiment(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MeanMakespan["FCFS"]-1) > 1e-9 {
		t.Errorf("FCFS normalised makespan %v != 1", r.MeanMakespan["FCFS"])
	}
	// The Xu et al. observation: symbiosis-unaware LJF beats the
	// symbiosis-aware schedulers on small-set makespan.
	if r.MeanMakespan["LJF"] > r.MeanMakespan["MAXIT"] {
		t.Errorf("LJF makespan %v should beat MAXIT %v on small batches",
			r.MeanMakespan["LJF"], r.MeanMakespan["MAXIT"])
	}
	// SRPT trades makespan for turnaround: highest tail idle.
	if r.MeanTailIdle["SRPT"] < r.MeanTailIdle["LJF"] {
		t.Errorf("SRPT tail idle %v should exceed LJF's %v",
			r.MeanTailIdle["SRPT"], r.MeanTailIdle["LJF"])
	}
	if out := r.Format(); !strings.Contains(out, "Makespan") {
		t.Error("Format missing header")
	}
}
