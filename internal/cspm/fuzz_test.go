package cspm

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"slices"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/shardrpc"
)

// FuzzExecuteShardJob feeds the worker arbitrary wire bytes: each input is
// gob-decoded into a shardrpc.Job and mined by ExecuteShardJob directly,
// without the panic recovery a worker's execute wraps around it. A job
// either fails with an error or yields an entry that survives the wire
// codec unchanged; it never panics. Besides well-formed jobs, and jobs
// moved to another N or to other global ids, the seeds carry each shape no
// coordinator builds, which Job.Validate refuses: unsorted or repeated
// attributes, unsorted neighbours, a self-loop, a one-sided edge, Values
// out of order, a local id past Values, a listed value no row carries, and
// a Total that is negative or below the rows' occurrences.
func FuzzExecuteShardJob(f *testing.F) {
	add := func(j shardrpc.Job) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(j); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, seed := range []int64{1, 2} {
		g := dataset.Islands(dataset.IslandsConfig{
			Seed: seed, Islands: 3, MinNodes: 3, MaxNodes: 6,
			AttrsPerIsland: 4, ExtraEdges: 0.5, AttrsPerNode: 2,
		})
		jobs, capped := buildShardJobs(g, Options{}), buildShardJobs(g, Options{Variant: Basic, MaxIterations: 2})
		for gi, job := range jobs {
			add(job)
			add(capped[gi])
		}
		j := jobs[0]
		slices.Reverse(j.Attrs[0])
		j.Adj[0] = append(j.Adj[0], 0)
		j.Adj[1] = nil
		add(j)
	}
	g := dataset.Islands(dataset.IslandsConfig{
		Seed: 1, Islands: 3, MinNodes: 3, MaxNodes: 6,
		AttrsPerIsland: 4, ExtraEdges: 0.5, AttrsPerNode: 2,
	})
	for i, malform := range []func(j *shardrpc.Job){
		func(j *shardrpc.Job) { slices.Reverse(j.Attrs[0]) },
		func(j *shardrpc.Job) { j.Attrs[0] = append(j.Attrs[0], j.Attrs[0][len(j.Attrs[0])-1]) },
		func(j *shardrpc.Job) { slices.Reverse(j.Adj[0]) },
		func(j *shardrpc.Job) { j.Adj[0] = append([]graph.VertexID{0}, j.Adj[0]...) },
		func(j *shardrpc.Job) { j.Adj[1] = nil },
		func(j *shardrpc.Job) { slices.Reverse(j.Values) },
		func(j *shardrpc.Job) { j.Attrs[0][len(j.Attrs[0])-1] = graph.AttrID(len(j.Values)) },
		func(j *shardrpc.Job) { j.Values = append(j.Values, j.Values[len(j.Values)-1]+1) },
		func(j *shardrpc.Job) { j.Total = len(j.Attrs[0]) },
		func(j *shardrpc.Job) { j.Total = -1 },
	} {
		j := buildShardJobs(g, Options{})[0]
		malform(&j)
		if j.Validate() == nil {
			f.Fatalf("malformed seed %d passes Validate", i)
		}
		add(j)
	}
	for _, move := range []func(j *shardrpc.Job){
		func(j *shardrpc.Job) { j.Total *= 3 },
		func(j *shardrpc.Job) {
			for i := range j.Values {
				j.Values[i] += 1000
			}
		},
	} {
		j := buildShardJobs(g, Options{})[0]
		move(&j)
		if err := j.Validate(); err != nil {
			f.Fatalf("moved seed: %v", err)
		}
		add(j)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var job shardrpc.Job
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&job) != nil {
			return
		}
		e, err := ExecuteShardJob(job)
		if err != nil {
			return
		}
		blob, sum, err := shardrpc.EncodeEntry(e)
		if err != nil {
			t.Fatalf("entry does not encode: %v", err)
		}
		got, err := shardrpc.DecodeEntry(blob, sum)
		if err != nil {
			t.Fatalf("entry does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("entry changed over the wire:\n%+v\nvs\n%+v", got, e)
		}
	})
}
