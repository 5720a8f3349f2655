package farm

import (
	"fmt"
	"testing"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/metrics"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// dispatchServers builds n FCFS servers over the SMT table at mixed
// occupancies — idle, partially filled and full — so a Pick sweep
// exercises the marginal-rate probe and the saturation fallback exactly
// as a live farm would.
func dispatchServers(tb testing.TB, n int) []*eventsim.Server {
	tb.Helper()
	tab := smtTable(tb)
	servers := make([]*eventsim.Server, n)
	id := 0
	for i := range servers {
		sv := eventsim.NewServer(tab, &sched.FCFS{})
		for j := 0; j < i%(tab.K()+1); j++ {
			sv.Add(&sched.Job{ID: id, Type: (i + j) % tab.K(), Size: 10, Remaining: 10})
			id++
		}
		if err := sv.Reschedule(); err != nil {
			tb.Fatal(err)
		}
		servers[i] = sv
	}
	return servers
}

// TestDispatcherPickZeroAllocs pins every dispatcher's per-arrival cost
// at zero heap allocations. LeastInterference used to rebuild its probe
// state per Pick and PowerOfD used to copy its probe set; both now keep
// dispatcher-owned scratch, and this test keeps them honest.
func TestDispatcherPickZeroAllocs(t *testing.T) {
	servers := dispatchServers(t, 16)
	dispatchers := []Dispatcher{
		Random{},
		&RoundRobin{},
		JoinShortestQueue{},
		&LeastInterference{},
		&PowerOfD{D: 3},
		&PowerOfD{D: 0},                // clamps to pd1
		&PowerOfD{D: len(servers) * 2}, // full probe: delegates to li
	}
	for _, d := range dispatchers {
		rng := stats.NewRNG(11)
		j := &sched.Job{ID: 10_000, Type: 2, Size: 5, Remaining: 5}
		d.Pick(j, servers, len(servers), rng) // warm dispatcher scratch
		if got := testing.AllocsPerRun(200, func() { d.Pick(j, servers, len(servers), rng) }); got != 0 {
			t.Errorf("%s: Pick allocates %.1f times per arrival, want 0", d.Name(), got)
		}
	}
}

// TestLearnedPickZeroAllocs extends the pin to learned rates: li over
// servers that decide over pairwise learners. Before every Pick each
// learner observes an interval containing the job's type, which marks
// that type stale, so every probe re-solves.
func TestLearnedPickZeroAllocs(t *testing.T) {
	tab := smtTable(t)
	servers := dispatchServers(t, 16)
	j := &sched.Job{ID: 10_000, Type: 2, Size: 5, Remaining: 5}
	var cos []workload.Coschedule
	var progress [][]float64
	for _, c := range workload.Multisets(len(tab.Suite()), tab.K()) {
		if c.Count(j.Type) == 0 {
			continue
		}
		pr := make([]float64, len(c))
		for i, typ := range c {
			pr[i] = tab.JobWIPC(c, typ) * 0.25
		}
		cos, progress = append(cos, c), append(progress, pr)
	}
	col := metrics.New()
	met := online.NewMetrics(col)
	learners := make([]*online.Pairwise, len(servers))
	probed := 0
	for i, sv := range servers {
		p := online.NewPairwise(tab.K(), len(tab.Suite()), online.PairwiseConfig{})
		for ci, c := range cos {
			p.ObserveInterval(c, 0.25, progress[ci])
		}
		p.SetMetrics(met)
		sv.SetRates(p)
		learners[i] = p
		if sv.JobsInSystem() < sv.K() {
			probed++
		}
	}
	d := &LeastInterference{}
	rng := stats.NewRNG(11)
	d.Pick(j, servers, len(servers), rng) // warm dispatcher and learner scratch
	solves := col.Counter("online_solves")
	before := solves.Value()
	const runs = 200
	round := 0
	allocs := testing.AllocsPerRun(runs, func() {
		ci := round % len(cos)
		for _, p := range learners {
			p.ObserveInterval(cos[ci], 0.25, progress[ci])
		}
		d.Pick(j, servers, len(servers), rng)
		round++
	})
	if allocs != 0 {
		t.Errorf("li over pairwise: observe+Pick allocates %.1f times per arrival, want 0", allocs)
	}
	if got, want := solves.Value()-before, uint64(runs*probed); got < want {
		t.Errorf("%d re-solves over %d picks probing %d servers; want at least %d", got, runs, probed, want)
	}
}

// TestPowerOfDZeroClamp pins the D <= 0 contract: the constructed policy
// is pd1 in name AND in behaviour (one dispatch-stream draw per arrival,
// identical picks to an explicit D=1 over the same stream). Before the
// clamp, Name() reported the raw "pd0" while Pick probed one server.
func TestPowerOfDZeroClamp(t *testing.T) {
	p0, p1 := &PowerOfD{D: 0}, &PowerOfD{D: 1}
	if got, want := p0.Name(), "pd1"; got != want {
		t.Errorf("PowerOfD{D:0}.Name() = %q, want %q", got, want)
	}
	if got, want := (&PowerOfD{D: -3}).Name(), "pd1"; got != want {
		t.Errorf("PowerOfD{D:-3}.Name() = %q, want %q", got, want)
	}
	servers := dispatchServers(t, 8)
	r0, r1 := stats.NewRNG(42), stats.NewRNG(42)
	j := &sched.Job{ID: 10_000, Type: 1, Size: 5, Remaining: 5}
	for i := 0; i < 500; i++ {
		a, b := p0.Pick(j, servers, len(servers), r0), p1.Pick(j, servers, len(servers), r1)
		if a != b {
			t.Fatalf("draw %d: pd0 picked %d, pd1 picked %d", i, a, b)
		}
	}
}

// BenchmarkDispatcherPick measures the per-arrival dispatch decision in
// isolation — the code that runs once per job on the farm's hot path.
// The 64- and 512-server farms stay in cache; at 65536 servers pd2's
// two random probes mostly miss it, as on megafarm.
func BenchmarkDispatcherPick(b *testing.B) {
	for _, bc := range []struct {
		n  int
		ds []Dispatcher
	}{
		{64, []Dispatcher{&LeastInterference{}, &PowerOfD{D: 3}}},
		{512, []Dispatcher{&LeastInterference{}, &PowerOfD{D: 3}}},
		{65536, []Dispatcher{&PowerOfD{D: 2}}},
	} {
		servers := dispatchServers(b, bc.n)
		for _, d := range bc.ds {
			b.Run(fmt.Sprintf("%s/servers=%d", d.Name(), bc.n), func(b *testing.B) {
				rng := stats.NewRNG(1)
				j := &sched.Job{ID: 10_000, Type: 2, Size: 5, Remaining: 5}
				d.Pick(j, servers, len(servers), rng)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Pick(j, servers, len(servers), rng)
				}
			})
		}
	}
}
