package eventsim

import (
	"math"
	"sync"
	"testing"

	"symbiosched/internal/core"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/queueing"
	"symbiosched/internal/sched"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

var (
	once sync.Once
	tab  *perfdb.Table
)

func table(t testing.TB) *perfdb.Table {
	t.Helper()
	once.Do(func() {
		suite := program.Suite()
		mini := []program.Profile{suite[1], suite[5], suite[6], suite[7]}
		tab = perfdb.Build(perfdb.SMTModel{Machine: uarch.DefaultSMT()}, mini)
	})
	return tab
}

func w4() workload.Workload { return workload.Workload{0, 1, 2, 3} }

func TestLatencyLowLoadTurnaroundNearServiceTime(t *testing.T) {
	tb := table(t)
	res, err := Latency(tb, w4(), &sched.FCFS{}, LatencyConfig{
		Lambda: 0.01, Jobs: 3000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// At near-zero load every job runs alone: turnaround ~ 1/WIPC(solo) = 1.
	if res.MeanTurnaround < 0.95 || res.MeanTurnaround > 1.3 {
		t.Errorf("low-load turnaround %v, want ~1 (solo service time)", res.MeanTurnaround)
	}
	if res.EmptyFraction < 0.9 {
		t.Errorf("low-load empty fraction %v, want ~1", res.EmptyFraction)
	}
}

func TestLatencyThroughputEqualsArrivalRate(t *testing.T) {
	// Below saturation, long-run throughput equals the offered load
	// (Section III-A: "The average throughput equals the arrival rate").
	tb := table(t)
	fcfsMax := core.FCFS(tb, w4(), core.FCFSConfig{Jobs: 20_000, Seed: 3}).Throughput
	lambda := 0.7 * fcfsMax
	res, err := Latency(tb, w4(), &sched.FCFS{}, LatencyConfig{
		Lambda: lambda, Jobs: 20_000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Throughput-lambda) / lambda; rel > 0.05 {
		t.Errorf("throughput %v differs from arrival rate %v by %.1f%%", res.Throughput, lambda, 100*rel)
	}
}

func TestTurnaroundGrowsWithLoad(t *testing.T) {
	tb := table(t)
	fcfsMax := core.FCFS(tb, w4(), core.FCFSConfig{Jobs: 20_000, Seed: 3}).Throughput
	var prev float64
	for i, load := range []float64{0.5, 0.8, 0.95} {
		res, err := Latency(tb, w4(), &sched.FCFS{}, LatencyConfig{
			Lambda: load * fcfsMax, Jobs: 15_000, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.MeanTurnaround <= prev {
			t.Errorf("turnaround did not grow with load: %v at load %v", res.MeanTurnaround, load)
		}
		prev = res.MeanTurnaround
	}
}

func TestUtilisationBounded(t *testing.T) {
	tb := table(t)
	res, err := Latency(tb, w4(), &sched.FCFS{}, LatencyConfig{Lambda: 1, Jobs: 5000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilisation < 0 || res.Utilisation > float64(tb.K()) {
		t.Errorf("utilisation %v outside [0, K]", res.Utilisation)
	}
	if res.EmptyFraction < 0 || res.EmptyFraction > 1 {
		t.Errorf("empty fraction %v outside [0,1]", res.EmptyFraction)
	}
}

func TestMaxThroughputMatchesFCFSReference(t *testing.T) {
	// The pooled max-throughput experiment under FCFS must agree with the
	// core.FCFS fully-loaded simulation (same process, different code path).
	tb := table(t)
	ref := core.FCFS(tb, w4(), core.FCFSConfig{Jobs: 30_000, Seed: 6}).Throughput
	res, err := MaxThroughput(tb, w4(), &sched.FCFS{}, MaxThroughputConfig{Jobs: 30_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Throughput-ref) / ref; rel > 0.02 {
		t.Errorf("pooled FCFS TP %v vs reference %v (%.1f%%)", res.Throughput, ref, 100*rel)
	}
}

func TestMAXTPApproachesOptimal(t *testing.T) {
	// Figure 6's headline: MAXTP's achieved throughput almost exactly
	// matches the LP maximum.
	tb := table(t)
	w := w4()
	opt, err := core.Optimal(tb, w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewMAXTP(tb, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxThroughput(tb, w, s, MaxThroughputConfig{Jobs: 30_000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput > opt.Throughput*1.01 {
		t.Errorf("MAXTP %v exceeds LP optimum %v", res.Throughput, opt.Throughput)
	}
	if res.Throughput < opt.Throughput*0.98 {
		t.Errorf("MAXTP %v more than 2%% below LP optimum %v", res.Throughput, opt.Throughput)
	}
}

func TestSRPTMatchesFCFSMaxThroughput(t *testing.T) {
	// Paper, Figure 6: "The SRPT scheduler has the same maximum throughput
	// as the FCFS scheduler" (within noise).
	tb := table(t)
	fcfs, err := MaxThroughput(tb, w4(), &sched.FCFS{}, MaxThroughputConfig{Jobs: 25_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srpt, err := MaxThroughput(tb, w4(), &sched.SRPT{Rates: tab}, MaxThroughputConfig{Jobs: 25_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(srpt.Throughput-fcfs.Throughput) / fcfs.Throughput; rel > 0.03 {
		t.Errorf("SRPT TP %v vs FCFS %v differ by %.1f%%", srpt.Throughput, fcfs.Throughput, 100*rel)
	}
}

func TestErlangSizesMeanPreserved(t *testing.T) {
	tb := table(t)
	for _, shape := range []int{1, 4} {
		res, err := Latency(tb, w4(), &sched.FCFS{}, LatencyConfig{
			Lambda: 0.2, Jobs: 20_000, SizeShape: shape, Seed: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Work completed per job ~ mean size 1 regardless of shape.
		perJob := res.Throughput * res.Elapsed / float64(res.Completed)
		if math.Abs(perJob-1) > 0.05 {
			t.Errorf("shape %d: mean job size %v, want ~1", shape, perJob)
		}
	}
}

func TestLatencyAgainstMMCIntuition(t *testing.T) {
	// With exponential sizes the system resembles an M/M/K queue whose
	// service rate comes from the coschedule rates; the simulated
	// turnaround should be of the same order as the analytic prediction.
	tb := table(t)
	fcfsMax := core.FCFS(tb, w4(), core.FCFSConfig{Jobs: 20_000, Seed: 3}).Throughput
	load := 0.85
	res, err := Latency(tb, w4(), &sched.FCFS{}, LatencyConfig{
		Lambda: load * fcfsMax, Jobs: 25_000, SizeShape: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := queueing.MMC{Lambda: load * fcfsMax, Mu: fcfsMax / 4, C: 4}
	w, err := q.MeanTurnaround()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanTurnaround < w/3 || res.MeanTurnaround > w*3 {
		t.Errorf("simulated turnaround %v far from M/M/4 estimate %v", res.MeanTurnaround, w)
	}
}

func TestInvalidConfig(t *testing.T) {
	tb := table(t)
	if _, err := Latency(tb, w4(), &sched.FCFS{}, LatencyConfig{Lambda: 0}); err == nil {
		t.Error("expected error for zero arrival rate")
	}
}

func TestDeterminism(t *testing.T) {
	tb := table(t)
	cfg := LatencyConfig{Lambda: 0.8, Jobs: 3000, Seed: 12}
	a, err := Latency(tb, w4(), &sched.FCFS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Latency(tb, w4(), &sched.FCFS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanTurnaround != b.MeanTurnaround || a.Throughput != b.Throughput {
		t.Error("simulation is not deterministic for a fixed seed")
	}
}

// TestJobStreamRecycle pins that recycling only decides which memory a
// job occupies: a stream that takes every job back — left dirty the way
// an engine leaves it, with Remaining spent and Retries raised — yields
// the same (ID, Type, Size, Remaining, Arrival, Retries = 0) sequence as
// a stream that never recycles. Jobs are returned in batches of varying
// size, so Next draws both from the free list and from fresh chunks.
func TestJobStreamRecycle(t *testing.T) {
	cfg := LatencyConfig{Lambda: 1, SizeShape: 4, Seed: 5}
	fresh, recycled := NewJobStream(w4(), cfg), NewJobStream(w4(), cfg)
	var held []*sched.Job
	for i := 0; i < 3*jobChunk; i++ {
		now := 0.5 * float64(i)
		want := *fresh.Next(now)
		j := recycled.Next(now)
		if *j != want {
			t.Fatalf("job %d: recycling stream yields %+v, want %+v", i, *j, want)
		}
		j.Remaining, j.Retries = 0, 1+i%4
		held = append(held, j)
		if i%5 == 4 {
			for _, h := range held {
				recycled.Recycle(h)
			}
			last := held[len(held)-1]
			r := recycled.Next(now)
			if r != last {
				t.Fatalf("job %d: Next did not reuse the last recycled job", i)
			}
			if want := *fresh.Next(now); *r != want {
				t.Fatalf("job %d: reused job %+v, want %+v", i, *r, want)
			}
			held = append(held[:0], r)
		}
	}
}
