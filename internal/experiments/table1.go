package experiments

import (
	"fmt"
	"io"
)

// Table1Row is one row of the paper's capability matrix (Table I).
type Table1Row struct {
	Capability string
	Support    map[string]bool // per algorithm
}

// Table1Algorithms is the paper's column order. CSPM, Krimp and SLIM are
// implemented in this repository (internal/cspm, internal/krimp and
// internal/slim); GraphMDL and VOG are external systems not rebuilt here, so
// their columns reflect the published descriptions.
var Table1Algorithms = []string{"CSPM", "Krimp", "SLIM", "GraphMDL", "VOG"}

// Table1 returns the capability matrix. Unlike the other experiments this
// is definitional — the test suite backs each "yes" for the implemented
// systems (e.g. attribute-pattern mining is exercised by the cspm tests,
// compression by the krimp/slim decode round-trips).
func Table1() []Table1Row {
	mk := func(cspm, krimp, slim, graphmdl, vog bool) map[string]bool {
		return map[string]bool{
			"CSPM": cspm, "Krimp": krimp, "SLIM": slim, "GraphMDL": graphmdl, "VOG": vog,
		}
	}
	return []Table1Row{
		{Capability: "Attributed graph?", Support: mk(true, false, false, false, false)},
		{Capability: "Attribute patterns?", Support: mk(true, false, false, false, false)},
		{Capability: "Compressing patterns?", Support: mk(true, true, true, true, false)},
		{Capability: "On-the-fly candidates?", Support: mk(true, false, true, false, false)},
	}
}

// PrintTable1 renders the matrix like the paper.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-24s", "")
	for _, alg := range Table1Algorithms {
		fmt.Fprintf(w, " %-9s", alg)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s", r.Capability)
		for _, alg := range Table1Algorithms {
			mark := "no"
			if r.Support[alg] {
				mark = "yes"
			}
			fmt.Fprintf(w, " %-9s", mark)
		}
		fmt.Fprintln(w)
	}
}
