package slim

import (
	"math/rand"
	"testing"

	"cspm/internal/fim"
	"cspm/internal/graph"
	"cspm/internal/invdb"
)

func patternedDB(seed int64, n int) *fim.DB {
	rng := rand.New(rand.NewSource(seed))
	raw := make([][]fim.Item, n)
	for i := range raw {
		if rng.Float64() < 0.6 {
			raw[i] = append(raw[i], 0, 1, 2)
		}
		if rng.Float64() < 0.4 {
			raw[i] = append(raw[i], 3, 4)
		}
		for it := 5; it < 12; it++ {
			if rng.Float64() < 0.15 {
				raw[i] = append(raw[i], fim.Item(it))
			}
		}
		if len(raw[i]) == 0 {
			raw[i] = append(raw[i], fim.Item(5+rng.Intn(7)))
		}
	}
	return fim.NewDB(raw)
}

func TestSlimCompressesPlantedDB(t *testing.T) {
	db := patternedDB(1, 120)
	res := Mine(db, Options{})
	if res.FinalDL >= res.BaselineDL {
		t.Fatalf("SLIM failed to compress: %v >= %v", res.FinalDL, res.BaselineDL)
	}
	if res.Accepted == 0 {
		t.Fatal("no merges accepted")
	}
	if err := res.CT.Decode(); err != nil {
		t.Fatal(err)
	}
	// Both planted itemsets should emerge (possibly as supersets).
	has012, has34 := false, false
	for _, e := range res.CT.NonSingletons() {
		if fim.Contains(fim.Transaction(e.Items), []fim.Item{0, 1, 2}) {
			has012 = true
		}
		if fim.Contains(fim.Transaction(e.Items), []fim.Item{3, 4}) {
			has34 = true
		}
	}
	if !has012 || !has34 {
		t.Errorf("planted itemsets not recovered: {0,1,2}=%v {3,4}=%v", has012, has34)
	}
}

func TestSlimMaxMerges(t *testing.T) {
	db := patternedDB(2, 100)
	res := Mine(db, Options{MaxMerges: 1})
	if res.Accepted > 1 {
		t.Fatalf("MaxMerges=1 accepted %d", res.Accepted)
	}
}

func TestSlimDeterministic(t *testing.T) {
	db := patternedDB(3, 80)
	a := Mine(db, Options{})
	db2 := patternedDB(3, 80)
	b := Mine(db2, Options{})
	if a.FinalDL != b.FinalDL || a.Accepted != b.Accepted {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", a.FinalDL, a.Accepted, b.FinalDL, b.Accepted)
	}
}

func buildGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for v, vals := range map[graph.VertexID][]string{
		0: {"x", "y"}, 1: {"x", "y"}, 2: {"z"}, 3: {"x", "y"}, 4: {"z"}, 5: {"x"},
	} {
		for _, val := range vals {
			if err := b.AddAttr(v, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestVertexTransactionsShape(t *testing.T) {
	g := buildGraph(t)
	db := VertexTransactions(g)
	if len(db.Txs) != 6 {
		t.Fatalf("%d transactions, want 6", len(db.Txs))
	}
	if len(db.Txs[2]) != 1 {
		t.Fatalf("tx[2] = %v, want single value", db.Txs[2])
	}
}

func TestItemsetsAsCoresetsBridge(t *testing.T) {
	g := buildGraph(t)
	res := Mine(VertexTransactions(g), Options{})
	coresets, positions := ItemsetsAsCoresets(res)
	if len(coresets) == 0 {
		t.Fatal("no coresets produced")
	}
	db, err := invdb.FromGraphWithCoresets(g, coresets, positions)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumCoresets() != len(coresets) {
		t.Fatalf("NumCoresets = %d, want %d", db.NumCoresets(), len(coresets))
	}
	// The multi-value coreset {x,y} should exist: vertices 0,1,3 carry both.
	foundMulti := false
	for i, cs := range coresets {
		if len(cs) == 2 {
			foundMulti = true
			if positions[i].Len() == 0 {
				t.Error("multi-value coreset has no positions")
			}
		}
	}
	if !foundMulti {
		t.Error("SLIM missed the {x,y} coreset")
	}
}

func TestMineGraphRuns(t *testing.T) {
	g := buildGraph(t)
	res := MineGraph(g, Options{})
	if res.FinalDL > res.BaselineDL {
		t.Fatalf("MineGraph expanded DL")
	}
}
