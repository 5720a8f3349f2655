// Serverfarm: a latency experiment on a batch server, after Section VI of
// the paper. Jobs of four types arrive as a Poisson stream at a
// configurable fraction of the server's maximum throughput; four online
// schedulers (FCFS, MAXIT, SRPT, MAXTP) are compared on turnaround time,
// utilisation and empty fraction — showing how a tiny throughput
// improvement becomes a large turnaround reduction near saturation.
//
// The experiment runs through internal/farm as a farm of one server: the
// single-server scenario of the paper is the N=1 special case of the farm
// simulator, which agrees with the direct eventsim.Latency call to float
// rounding. Pass -servers 4 to see the same contest on a four-server farm
// behind a symbiosis-aware dispatcher.
//
// Run with: go run ./examples/serverfarm [-load 0.95] [-jobs 30000] [-servers 1]
package main

import (
	"flag"
	"fmt"

	"symbiosched/internal/core"
	"symbiosched/internal/farm"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/program"
	"symbiosched/internal/sched"
	"symbiosched/internal/uarch"
	"symbiosched/internal/workload"
)

func main() {
	load := flag.Float64("load", 0.95, "offered load relative to FCFS maximum throughput")
	jobs := flag.Int("jobs", 30000, "jobs per experiment")
	servers := flag.Int("servers", 1, "number of servers in the farm")
	flag.Parse()

	table := perfdb.Build(perfdb.SMTModel{Machine: uarch.DefaultSMT()}, program.Suite())
	var w workload.Workload
	for _, id := range []string{"perlbench.diffmail", "gcc.g23", "h264ref.foreman", "xalancbmk.ref"} {
		_, idx, _ := program.ByID(id)
		w = append(w, idx)
	}

	// Calibrate the arrival rate against the aggregate FCFS maximum
	// throughput.
	maxTP := core.FCFS(table, w, core.FCFSConfig{Jobs: 30000}).Throughput
	lambda := *load * maxTP * float64(*servers)
	fmt.Printf("farm: %d x %s   workload: perlbench+gcc+h264ref+xalancbmk\n", *servers, table.Name())
	fmt.Printf("FCFS max throughput %.3f/server, offered load %.0f%% -> lambda = %.3f jobs/unit time\n\n",
		maxTP, 100**load, lambda)

	fmt.Printf("%-7s %12s %12s %12s %12s %12s\n", "sched", "turnaround", "p95", "vs FCFS", "utilisation", "empty frac")
	var base float64
	for _, name := range sched.Names {
		mk := func(rs online.RateSource) (sched.Scheduler, error) { return sched.New(name, rs, w) }
		specs := make([]farm.ServerSpec, *servers)
		for i := range specs {
			specs[i] = farm.ServerSpec{Table: table, Sched: mk}
		}
		// The symbiosis-aware dispatcher reduces to "the one server" at
		// N=1, so the farm-of-1 runs are exactly the paper's scenario.
		res, err := farm.SimulateSharded(specs, &farm.LeastInterference{}, w, farm.Config{
			Lambda:    lambda,
			Jobs:      *jobs,
			SizeShape: 4, // jobs of "approximately the same size"
		}, farm.ShardConfig{})
		if err != nil {
			panic(err)
		}
		if name == "FCFS" {
			base = res.MeanTurnaround
		}
		fmt.Printf("%-7s %12.3f %12.3f %11.1f%% %12.3f %12.4f\n",
			name, res.MeanTurnaround, res.P95Turnaround, 100*(res.MeanTurnaround/base-1),
			res.Utilisation*float64(table.K()), res.EmptyFraction)
	}
	fmt.Println("\nNear saturation, schedulers with slightly higher maximum throughput")
	fmt.Println("(MAXTP) cut turnaround disproportionately; SRPT cuts turnaround")
	fmt.Println("without any throughput gain by reordering jobs (Section VI).")
}
