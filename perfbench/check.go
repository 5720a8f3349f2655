package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// simStats is the part of one simulation call's result the output check
// reads. The farm-only fields stay zero for eventsim.Latency calls.
type simStats struct {
	Label          string  `json:"label"`
	Farm           bool    `json:"farm"`
	Jobs           int     `json:"jobs"`
	Warmup         int     `json:"warmup"`
	Completed      int     `json:"completed"`
	Counted        int     `json:"counted"`
	Dropped        int     `json:"dropped"`
	Redispatches   int     `json:"redispatches"`
	MeanTurnaround float64 `json:"mean_turnaround"`
	P99Turnaround  float64 `json:"p99_turnaround"`
	Throughput     float64 `json:"throughput"`
	Utilisation    float64 `json:"utilisation"` // busy contexts ÷ all contexts
	Elapsed        float64 `json:"elapsed"`
	Availability   float64 `json:"availability"`
	Goodput        float64 `json:"goodput"`
}

// relTol is the agreement the reference values are held to: the lazy
// per-server clocks of the sharded engine agree with the serial engine
// to this much (TestShardedMatchesSerialFarm), so a change of farm
// engine still passes while a change of simulated behaviour does not.
const relTol = 1e-9

// invariants checks one call's result against the simulation's physics.
func invariants(s simStats) []string {
	var bad []string
	fail := func(format string, a ...any) {
		bad = append(bad, s.Label+": "+fmt.Sprintf(format, a...))
	}
	if s.Farm {
		if s.Completed+s.Dropped != s.Jobs {
			fail("completed %d + dropped %d != jobs %d", s.Completed, s.Dropped, s.Jobs)
		}
		if s.Counted != s.Completed-s.Warmup {
			fail("counted %d != completed %d - warmup %d", s.Counted, s.Completed, s.Warmup)
		}
		if !(s.Availability > 0 && s.Availability <= 1) {
			fail("availability %v outside (0, 1]", s.Availability)
		}
		if !(s.Goodput <= s.Throughput*(1+relTol)) {
			fail("goodput %v exceeds throughput %v", s.Goodput, s.Throughput)
		}
	} else if s.Completed != s.Jobs {
		fail("completed %d != jobs %d", s.Completed, s.Jobs)
	}
	if !(s.Utilisation > 0 && s.Utilisation <= 1) {
		fail("utilisation %v outside (0, 1]", s.Utilisation)
	}
	return bad
}

// matchReference compares one call with its stored reference value:
// counts exactly, floats within relTol.
func matchReference(s, r simStats) []string {
	if s.Label != r.Label || s.Jobs != r.Jobs || s.Warmup != r.Warmup || s.Completed != r.Completed ||
		s.Counted != r.Counted || s.Dropped != r.Dropped || s.Redispatches != r.Redispatches {
		return []string{fmt.Sprintf("%s: counts differ from the reference %+v", s.Label, r)}
	}
	var bad []string
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"mean turnaround", s.MeanTurnaround, r.MeanTurnaround},
		{"p99 turnaround", s.P99Turnaround, r.P99Turnaround},
		{"throughput", s.Throughput, r.Throughput},
		{"utilisation", s.Utilisation, r.Utilisation},
		{"elapsed", s.Elapsed, r.Elapsed},
	} {
		if !(math.Abs(f.got-f.want) <= relTol*math.Abs(f.want)) {
			bad = append(bad, fmt.Sprintf("%s: %s %v differs from the reference %v", s.Label, f.name, f.got, f.want))
		}
	}
	return bad
}

// verify checks one repetition's calls: the invariants; equality with
// the invocation's first repetition (first), because one seed gives one
// input and must give one result; and, when ref is set, the stored
// reference values. It returns how many calls failed and why.
func verify(got, first, ref []simStats) (failed int, why []string) {
	for i, s := range got {
		bad := invariants(s)
		if first != nil && (i >= len(first) || s != first[i]) {
			bad = append(bad, s.Label+": differs from the invocation's first repetition")
		}
		if ref != nil {
			if i < len(ref) {
				bad = append(bad, matchReference(s, ref[i])...)
			} else {
				bad = append(bad, s.Label+": no reference value")
			}
		}
		if len(bad) > 0 {
			failed++
			why = append(why, bad...)
		}
	}
	return failed, why
}

// referenceJSON holds each workload's statistics at the default seed,
// keyed by workload and size name. TestUpdateReference rewrites it.
//
//go:embed reference.json
var referenceJSON []byte

// loadReference returns the stored statistics of a workload at a size,
// or nil at any seed but the default, where only the invariants and the
// repetition identity are checked.
func loadReference(workload, sizeName string, seed uint64) ([]simStats, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	var refs map[string]map[string][]simStats
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	ref := refs[workload][sizeName]
	if ref == nil {
		return nil, fmt.Errorf("reference.json has no %s values at size %s", workload, sizeName)
	}
	return ref, nil
}
