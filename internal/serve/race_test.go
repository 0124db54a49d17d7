package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"

	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
)

// TestConcurrentCompleteDuringRemine hammers POST /v1/complete from several
// goroutines while the main goroutine drives a staged sequence of mutation
// batches, each forcing a snapshot swap. Every response must be internally
// consistent: the generation it reports must match the scores it returned,
// byte for byte against the scores independently derived by mining that
// generation's graph offline. Run under -race this also keeps the atomic
// snapshot-swap contract honest.
func TestConcurrentCompleteDuringRemine(t *testing.T) {
	g := testGraph(t)
	s, hs := serveDefault(t, g)
	ctx := ctxShort(t)

	// Stage k publishes generation k+2. The cycle alternates islands and
	// undoes itself, so both dirty-group re-mining and cache replay happen
	// under load and the stage count can grow without inventing new state.
	cycle := [][]Mutation{
		{{Op: OpAddEdge, U: 0, V: 3}},
		{{Op: OpAddAttr, U: 3, Value: "cancer"}},
		{{Op: OpDelEdge, U: 0, V: 3}},
		{{Op: OpDelAttr, U: 3, Value: "cancer"}},
		{{Op: OpAddEdge, U: 4, V: 7}},
		{{Op: OpDelEdge, U: 4, V: 7}},
	}
	var batches [][]Mutation
	for round := 0; round < 8; round++ {
		batches = append(batches, cycle...)
	}
	const (
		target  = graph.VertexID(2)
		topK    = 1000
		hammers = 4
	)

	// Precompute the expected ranked candidates per generation by mining
	// each staged graph independently of the server.
	expect := make(map[uint64][]CandidateJSON)
	staged := g
	record := func(gen uint64) {
		model := icspm.Mine(staged)
		expect[gen] = rankRowReference(scoreNodeReference(model, staged, target), staged.Vocab(), topK)
	}
	record(1)
	for i, batch := range batches {
		staged = Rebuild(staged, batch)
		record(uint64(i + 2))
	}

	type observed struct {
		gen    uint64
		values []CandidateJSON
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		seen    []observed
		stop    = make(chan struct{})
		reqBody = func() []byte {
			raw, err := json.Marshal(CompleteRequest{Vertices: []graph.VertexID{target}, TopK: topK})
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}()
	)
	for w := 0; w < hammers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(hs.URL+"/v1/complete", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					mu.Lock()
					seen = append(seen, observed{gen: 0})
					mu.Unlock()
					return
				}
				var body CompleteResponse
				decErr := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					mu.Lock()
					seen = append(seen, observed{gen: 0})
					mu.Unlock()
					return
				}
				mu.Lock()
				seen = append(seen, observed{gen: body.Generation, values: body.Results[0].Values})
				mu.Unlock()
			}
		}()
	}

	// Stage the batches sequentially — each waits for its generation so the
	// gen→graph mapping stays deterministic while queries overlap re-mines,
	// and for at least one response landed since the previous stage so the
	// observations genuinely interleave the swaps instead of trailing them.
	responses := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
	for i, batch := range batches {
		before := responses()
		if err := s.SubmitMutations(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.AwaitGeneration(ctx, uint64(i+2)); err != nil {
			t.Fatal(err)
		}
		for responses() == before {
			select {
			case <-ctx.Done():
				t.Fatal("timed out waiting for a query to land between snapshot swaps")
			default:
				runtime.Gosched()
			}
		}
	}
	close(stop)
	wg.Wait()

	if len(seen) == 0 {
		t.Fatal("no responses observed")
	}
	gens := make(map[uint64]int)
	for i, ob := range seen {
		if ob.gen == 0 {
			t.Fatal("a /v1/complete request failed during re-mining")
		}
		want, ok := expect[ob.gen]
		if !ok {
			t.Fatalf("response %d claims unknown generation %d", i, ob.gen)
		}
		if !reflect.DeepEqual(ob.values, want) {
			t.Fatalf("response %d: generation %d served scores of a different model:\n got %s\nwant %s",
				i, ob.gen, fmtCandidates(ob.values), fmtCandidates(want))
		}
		gens[ob.gen]++
	}
	t.Logf("%d consistent responses across generations %v", len(seen), gens)
}

func fmtCandidates(cs []CandidateJSON) string {
	var b bytes.Buffer
	for _, c := range cs {
		fmt.Fprintf(&b, "%s=%v ", c.Value, c.Score)
	}
	return b.String()
}
