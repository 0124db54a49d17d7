package krimp

import (
	"math"
	"math/rand"
	"testing"

	"cspm/internal/fim"
)

// patternedDB plants the itemset {0,1,2} in most transactions plus noise.
func patternedDB(seed int64, n int) *fim.DB {
	rng := rand.New(rand.NewSource(seed))
	raw := make([][]fim.Item, n)
	for i := range raw {
		if rng.Float64() < 0.7 {
			raw[i] = append(raw[i], 0, 1, 2)
		}
		for it := 3; it < 10; it++ {
			if rng.Float64() < 0.2 {
				raw[i] = append(raw[i], fim.Item(it))
			}
		}
		if len(raw[i]) == 0 {
			raw[i] = append(raw[i], fim.Item(3+rng.Intn(7)))
		}
	}
	return fim.NewDB(raw)
}

func TestSingletonTableCoversLosslessly(t *testing.T) {
	db := patternedDB(1, 50)
	ct := NewCodeTable(db)
	if err := ct.Decode(); err != nil {
		t.Fatal(err)
	}
	// Total usage with singletons = total item occurrences.
	occ := 0
	for _, tx := range db.Txs {
		occ += len(tx)
	}
	if ct.TotalUsage() != occ {
		t.Fatalf("TotalUsage = %d, want %d", ct.TotalUsage(), occ)
	}
}

func TestAddItemsetImprovesPlantedDB(t *testing.T) {
	db := patternedDB(2, 80)
	ct := NewCodeTable(db)
	before := ct.TotalDL()
	ct.TryItemset([]fim.Item{0, 1, 2})
	after := ct.TotalDL()
	if after >= before {
		t.Fatalf("planted itemset did not compress: %v -> %v", before, after)
	}
	if err := ct.Decode(); err != nil {
		t.Fatal(err)
	}
}

func TestAddRemoveRoundTrip(t *testing.T) {
	db := patternedDB(3, 40)
	ct := NewCodeTable(db)
	before := ct.TotalDL()
	_, rollback := ct.TryItemset([]fim.Item{0, 1})
	rollback()
	if math.Abs(ct.TotalDL()-before) > 1e-9 {
		t.Fatalf("try+rollback changed DL: %v -> %v", before, ct.TotalDL())
	}
	if ct.Has([]fim.Item{0, 1}) {
		t.Fatal("rolled-back itemset is still in the table")
	}
}

func TestAddExistingItemsetIdempotent(t *testing.T) {
	db := patternedDB(4, 40)
	ct := NewCodeTable(db)
	e1, _ := ct.TryItemset([]fim.Item{0, 1, 2})
	e2, rollback := ct.TryItemset([]fim.Item{2, 1, 0})
	if e1 != e2 || rollback != nil {
		t.Fatal("re-adding an itemset created a duplicate entry")
	}
}

func TestCoverDisjointAndOrdered(t *testing.T) {
	db := fim.NewDB([][]fim.Item{{0, 1, 2, 3}})
	ct := NewCodeTable(db)
	ct.TryItemset([]fim.Item{0, 1})
	ct.TryItemset([]fim.Item{1, 2}) // overlaps {0,1}; cover must stay disjoint
	cover := ct.CoverTx(db.Txs[0])
	seen := map[fim.Item]int{}
	for _, e := range cover {
		for _, it := range e.Items {
			seen[it]++
		}
	}
	for it, n := range seen {
		if n != 1 {
			t.Fatalf("item %d covered %d times", it, n)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("cover misses items: %v", seen)
	}
}

func TestMineKrimp(t *testing.T) {
	db := patternedDB(6, 100)
	res, err := Mine(db, Options{MinSupport: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDL >= res.BaselineDL {
		t.Fatalf("Krimp failed to compress: %v >= %v", res.FinalDL, res.BaselineDL)
	}
	if res.Accepted == 0 {
		t.Fatal("no candidates accepted on a planted database")
	}
	// The planted pattern must be in the final table.
	found := false
	for _, e := range res.CT.NonSingletons() {
		if len(e.Items) == 3 && e.Items[0] == 0 && e.Items[1] == 1 && e.Items[2] == 2 {
			found = true
		}
	}
	if !found {
		t.Error("planted itemset {0,1,2} not in code table")
	}
	if err := res.CT.Decode(); err != nil {
		t.Fatal(err)
	}
}

func TestMineValidation(t *testing.T) {
	if _, err := Mine(patternedDB(7, 10), Options{MinSupport: 0}); err == nil {
		t.Fatal("MinSupport 0 accepted")
	}
}

func TestUsageSumsMatchTotal(t *testing.T) {
	db := patternedDB(8, 60)
	res, err := Mine(db, Options{MinSupport: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, e := range res.CT.Entries() {
		sum += e.Usage
		if e.Tids.Len() != e.Usage {
			t.Fatalf("entry %v: usage %d != |tids| %d", e.Items, e.Usage, e.Tids.Len())
		}
	}
	if sum != res.CT.TotalUsage() {
		t.Fatalf("usage sum %d != total %d", sum, res.CT.TotalUsage())
	}
}
