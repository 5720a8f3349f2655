package exp

import (
	"fmt"
	"strings"

	"symbiosched/internal/scenario"
	"symbiosched/internal/uarch"
)

// Table1Row characterises one benchmark of Table I on both machines.
type Table1Row struct {
	ID               string
	SoloIPCSMT       float64
	SoloIPCQuad      float64
	BranchMPKI       float64
	MemMPKISolo      float64 // misses to memory at the full SMT cache
	CacheSensitivity float64 // miss-rate reduction from a 1/4 share to full cache
}

// Table1 lists the selected benchmarks with their key characteristics —
// the paper's Table I plus the interference-coverage data the selection
// was based on.
func Table1(e *Env) []Table1Row {
	smt := e.Table(SMT)
	quad := e.Table(Quad)
	suite := e.Cfg.Suite
	full := float64(uarch.DefaultSMT().SharedCacheKB)
	rows := make([]Table1Row, len(suite))
	for i := range suite {
		p := &suite[i]
		rows[i] = Table1Row{
			ID:               p.ID(),
			SoloIPCSMT:       smt.Solo[i],
			SoloIPCQuad:      quad.Solo[i],
			BranchMPKI:       p.BranchMPKI,
			MemMPKISolo:      p.MemMPKI(full),
			CacheSensitivity: p.CacheSensitivity(full/4, full),
		}
	}
	return rows
}

// table1Table lists the benchmarks as the "table1" table.
func table1Table(rows []Table1Row) *scenario.Table {
	t := scenario.NewTable("table1", str("benchmark"),
		flt("solo_ipc_smt"), flt("solo_ipc_quad"), flt("branch_mpki"), flt("mem_mpki_solo"), flt("cache_sensitivity"))
	for _, row := range rows {
		t.Add(row.ID, row.SoloIPCSMT, row.SoloIPCQuad, row.BranchMPKI, row.MemMPKISolo, row.CacheSensitivity)
	}
	return t
}

// FormatTable1 renders the benchmark table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: selected SPEC CPU 2006 benchmarks (synthetic profiles)\n")
	fmt.Fprintf(&b, "  %-22s %9s %9s %8s %8s %9s\n", "benchmark", "soloIPC", "soloIPC", "brMPKI", "memMPKI", "cacheSens")
	fmt.Fprintf(&b, "  %-22s %9s %9s %8s %8s %9s\n", "", "(SMT)", "(quad)", "", "(solo)", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %9.3f %9.3f %8.1f %8.1f %8.0f%%\n",
			r.ID, r.SoloIPCSMT, r.SoloIPCQuad, r.BranchMPKI, r.MemMPKISolo, 100*r.CacheSensitivity)
	}
	return b.String()
}
