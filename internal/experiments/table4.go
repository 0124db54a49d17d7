package experiments

import (
	"fmt"
	"io"
	"sort"

	"cspm/internal/completion"
	"cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/gnn"
)

// Table4Row is one (dataset, model) pair with and without the CSPM scoring
// module (paper Table IV).
type Table4Row struct {
	Dataset string
	Model   string
	Ks      []int
	Base    completion.Metrics // model alone
	Fused   completion.Metrics // CSPM ⊗ model
}

// Table4Options configures the completion experiment.
type Table4Options struct {
	Scale        Scale
	Seed         int64
	TestFraction float64
	Epochs       int // training epochs per model (0 = scale default)
	Datasets     []string
}

// Table4Datasets is the paper's dataset order.
var Table4Datasets = []string{"Cora", "Citeseer", "DBLP"}

// table4KSet mirrors the paper: DBLP uses smaller K (fewer values per node).
func table4KSet(name string) []int {
	if name == "DBLP" {
		return []int{3, 5, 10}
	}
	return []int{10, 20, 50}
}

// Table4 runs every model with and without CSPM fusion on the citation
// datasets and reports Recall@K / NDCG@K.
func Table4(opts Table4Options) []Table4Row {
	if opts.TestFraction == 0 {
		opts.TestFraction = 0.1
	}
	if len(opts.Datasets) == 0 {
		opts.Datasets = Table4Datasets
	}
	epochs := opts.Epochs
	if epochs == 0 {
		if opts.Scale == Full {
			epochs = 150
		} else {
			epochs = 60
		}
	}
	var rows []Table4Row
	for _, name := range opts.Datasets {
		cfg := citationConfig(name, opts.Seed, opts.Scale)
		g, _ := dataset.Citation(cfg)
		task, err := completion.NewTask(g, opts.TestFraction, opts.Seed)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err)) // config bug, not runtime input
		}
		ks := table4KSet(name)
		// CSPM mines the training view only (no test-attribute leakage).
		model := cspm.Mine(task.TrainGraph())
		scorer := completion.NewScorer(model, task.TrainGraph())
		cspmScores := scorer.ScoreMatrix(task)

		mcfg := gnn.Config{Hidden: 32, Epochs: epochs, LR: 0.02, Seed: opts.Seed}
		models := []gnn.Model{
			gnn.NeighAggre{},
			gnn.NewVAE(mcfg),
			gnn.NewGCN(mcfg),
			gnn.NewGAT(mcfg),
			gnn.NewGraphSage(mcfg),
			gnn.NewSAT(mcfg),
		}
		for _, m := range models {
			scores := m.FitPredict(task)
			base := completion.Evaluate(task, scores, ks)
			fused := completion.Evaluate(task, completion.Fuse(scores, cspmScores, task.TestNodes), ks)
			rows = append(rows, Table4Row{
				Dataset: name, Model: m.Name(), Ks: ks, Base: base, Fused: fused,
			})
		}
	}
	return rows
}

// citationConfig scales the citation datasets: Small shrinks node counts so
// the dense models train in seconds.
func citationConfig(name string, seed int64, scale Scale) dataset.CitationConfig {
	var cfg dataset.CitationConfig
	switch name {
	case "Citeseer":
		cfg = dataset.Citeseer(seed)
	case "DBLP":
		cfg = dataset.DBLPCitation(seed)
	default:
		cfg = dataset.Cora(seed)
	}
	if scale == Small {
		cfg.Nodes /= 4
		cfg.Attrs /= 2
	}
	return cfg
}

// PrintTable4 renders the completion table with per-dataset average
// improvements, like the paper's "Avg.improvement" rows.
func PrintTable4(w io.Writer, rows []Table4Row) {
	byDataset := make(map[string][]Table4Row)
	var order []string
	for _, r := range rows {
		if _, ok := byDataset[r.Dataset]; !ok {
			order = append(order, r.Dataset)
		}
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	for _, name := range order {
		group := byDataset[name]
		ks := group[0].Ks
		fmt.Fprintf(w, "== %s (K = %v)\n", name, ks)
		fmt.Fprintf(w, "%-18s", "Method")
		for _, k := range ks {
			fmt.Fprintf(w, " Recall@%-3d", k)
		}
		for _, k := range ks {
			fmt.Fprintf(w, " NDCG@%-5d", k)
		}
		fmt.Fprintln(w)
		sumImpr := make(map[int]float64)
		for _, r := range group {
			printMetricRow(w, r.Model, r.Base, ks)
			printMetricRow(w, "CSPM+"+r.Model, r.Fused, ks)
			for _, k := range ks {
				if r.Base.RecallAtK[k] > 0 {
					sumImpr[k] += (r.Fused.RecallAtK[k] - r.Base.RecallAtK[k]) / r.Base.RecallAtK[k]
				}
			}
		}
		fmt.Fprintf(w, "%-18s", "Avg.improvement%")
		keys := append([]int(nil), ks...)
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %+9.2f%%", 100*sumImpr[k]/float64(len(group)))
		}
		fmt.Fprintln(w)
	}
}

func printMetricRow(w io.Writer, name string, m completion.Metrics, ks []int) {
	fmt.Fprintf(w, "%-18s", name)
	for _, k := range ks {
		fmt.Fprintf(w, " %10.4f", m.RecallAtK[k])
	}
	for _, k := range ks {
		fmt.Fprintf(w, " %10.4f", m.NDCGAtK[k])
	}
	fmt.Fprintln(w)
}
