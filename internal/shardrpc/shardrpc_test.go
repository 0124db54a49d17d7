package shardrpc

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/shardcache"
)

// fakeEntry derives a deterministic entry from a job so tests can verify
// results round-tripped intact without pulling in the real miner.
func fakeEntry(job Job) *shardcache.Entry {
	return &shardcache.Entry{
		Init: []invdb.LineStat{
			{Core: invdb.CoresetID(job.ID), Leaf: []graph.AttrID{1, 2}, FL: len(job.Attrs) + 1},
		},
		Final: []invdb.LineStat{
			{Core: invdb.CoresetID(job.ID), Leaf: []graph.AttrID{1}, FL: 1},
		},
		Iterations: int(job.ID) + 1,
		GainEvals:  7,
	}
}

func fakeHandler(job Job) (*shardcache.Entry, error) {
	return fakeEntry(job), nil
}

func testJob(id uint64) Job {
	return Job{
		ID:            id,
		NumAttrValues: 3,
		Attrs:         [][]graph.AttrID{{0, 1}, {2}},
		Adj:           [][]graph.VertexID{{1}, {0}},
		STFreqs:       []int{1, 1, 1},
	}
}

// collect reads n results or fails after a timeout.
func collect(t *testing.T, tr Transport, n int) map[uint64]Result {
	t.Helper()
	got := make(map[uint64]Result)
	deadline := time.After(5 * time.Second)
	for len(got) < n {
		select {
		case res, ok := <-tr.Results():
			if !ok {
				t.Fatalf("results channel closed after %d of %d results", len(got), n)
			}
			got[res.JobID] = res
		case <-deadline:
			t.Fatalf("timed out after %d of %d results", len(got), n)
		}
	}
	return got
}

func TestJobValidate(t *testing.T) {
	if err := testJob(1).Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	for name, mut := range map[string]func(*Job){
		"negative attr space": func(j *Job) { j.NumAttrValues = -1 },
		"freqs length":        func(j *Job) { j.STFreqs = []int{1} },
		"adj rows":            func(j *Job) { j.Adj = j.Adj[:1] },
		"attr out of range":   func(j *Job) { j.Attrs[0][0] = 99 },
		"attr negative":       func(j *Job) { j.Attrs[0][0] = -4 },
		"neighbour of range":  func(j *Job) { j.Adj[1][0] = 17 },
		"attrs descending":    func(j *Job) { j.Attrs[0] = []graph.AttrID{1, 0} },
		"attr repeated":       func(j *Job) { j.Attrs[0] = []graph.AttrID{1, 1} },
		"neighbours descending": func(j *Job) {
			j.Attrs = append(j.Attrs, []graph.AttrID{0})
			j.Adj = [][]graph.VertexID{{2, 1}, {0}, {0}}
		},
		"self-loop":       func(j *Job) { j.Adj[0] = []graph.VertexID{0, 1} },
		"one-sided edge":  func(j *Job) { j.Adj[1] = nil },
		"one-sided lower": func(j *Job) { j.Adj[0] = nil },
		"negative freq":   func(j *Job) { j.STFreqs[2] = -1 },
		"zero-freq value": func(j *Job) { j.STFreqs[2] = 0 },
	} {
		j := testJob(1)
		mut(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	e := fakeEntry(testJob(3))
	blob, sum, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEntry(blob, sum)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, e) {
		t.Fatalf("round trip mutated entry: %+v vs %+v", back, e)
	}
	// A flipped byte, a truncated blob, and a forged length must all report
	// ErrCorruptResult — never decode into a silently different entry.
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0xFF
	if _, err := DecodeEntry(flipped, sum); !errors.Is(err, ErrCorruptResult) {
		t.Fatalf("flipped byte: got %v", err)
	}
	if _, err := DecodeEntry(blob[:len(blob)/2], sum); !errors.Is(err, ErrCorruptResult) {
		t.Fatalf("truncated blob: got %v", err)
	}
	if _, err := DecodeEntry(nil, sum); !errors.Is(err, ErrCorruptResult) {
		t.Fatalf("empty blob: got %v", err)
	}
}

func TestLoopbackDeliversAll(t *testing.T) {
	lb := NewLoopback(fakeHandler, 3)
	const n = 20
	for i := 0; i < n; i++ {
		if err := lb.Submit(testJob(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, lb, n)
	for i := 0; i < n; i++ {
		res, ok := got[uint64(i)]
		if !ok {
			t.Fatalf("job %d: no result", i)
		}
		if res.Err != "" {
			t.Fatalf("job %d: %s", i, res.Err)
		}
		e, err := DecodeEntry(res.Blob, res.Sum)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !reflect.DeepEqual(e, fakeEntry(testJob(uint64(i)))) {
			t.Fatalf("job %d: entry mutated in transit", i)
		}
	}
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Submit(testJob(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if _, ok := <-lb.Results(); ok {
		t.Fatal("results channel still open after Close")
	}
}

func TestLoopbackHandlerErrorAndPanic(t *testing.T) {
	h := func(job Job) (*shardcache.Entry, error) {
		switch job.ID {
		case 1:
			return nil, fmt.Errorf("no such shard")
		case 2:
			panic("poisoned job")
		}
		return fakeEntry(job), nil
	}
	lb := NewLoopback(h, 1)
	defer lb.Close()
	for _, id := range []uint64{1, 2, 3} {
		if err := lb.Submit(testJob(id)); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, lb, 3)
	if got[1].Err == "" || got[2].Err == "" {
		t.Fatalf("worker failures not reported: %+v", got)
	}
	if got[3].Err != "" {
		t.Fatalf("healthy job failed after a poisoned one: %s", got[3].Err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv := NewServer(fakeHandler, 2)
	ready := make(chan net.Addr, 1)
	go srv.ListenAndServe("127.0.0.1:0", ready)
	addr := (<-ready).String()
	defer srv.Close()

	cl, err := Dial([]string{addr, addr}) // two conns to one worker: round-robin path
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if err := cl.Submit(testJob(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, cl, n)
	for i := 0; i < n; i++ {
		e, err := DecodeEntry(got[uint64(i)].Blob, got[uint64(i)].Sum)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !reflect.DeepEqual(e, fakeEntry(testJob(uint64(i)))) {
			t.Fatalf("job %d: entry mutated over TCP", i)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Submit(testJob(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestDialFailsFast(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Fatal("empty address list accepted")
	}
	// A dead address must fail Dial even when another address is healthy.
	srv := NewServer(fakeHandler, 1)
	ready := make(chan net.Addr, 1)
	go srv.ListenAndServe("127.0.0.1:0", ready)
	addr := (<-ready).String()
	defer srv.Close()
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if _, err := Dial([]string{addr, deadAddr}); err == nil {
		t.Fatal("unreachable worker accepted")
	}
}

func TestSubmitFailsWhenAllWorkersDown(t *testing.T) {
	srv := NewServer(fakeHandler, 1)
	ready := make(chan net.Addr, 1)
	go srv.ListenAndServe("127.0.0.1:0", ready)
	addr := (<-ready).String()
	cl, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv.Close()
	// The first submits may still land in OS buffers; eventually the dead
	// connection is noticed and Submit reports it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := cl.Submit(testJob(1)); err != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit kept succeeding against a closed worker")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosPlan builds a FaultPlan from an explicit (jobID, attempt) table;
// unlisted pairs pass through.
func chaosPlan(table map[[2]uint64]Fault) FaultPlan {
	return func(jobID uint64, attempt int) Fault {
		return table[[2]uint64{jobID, uint64(attempt)}]
	}
}

func TestChaosFaults(t *testing.T) {
	plan := chaosPlan(map[[2]uint64]Fault{
		{0, 0}: FaultNone,
		{1, 0}: FaultDrop,
		{2, 0}: FaultDuplicate,
		{3, 0}: FaultCorrupt,
		{4, 0}: FaultTruncate,
		{5, 0}: FaultError,
	})
	ch := NewChaos(NewLoopback(fakeHandler, 2), plan, 0)
	defer ch.Close()
	for id := uint64(0); id < 6; id++ {
		if err := ch.Submit(testJob(id)); err != nil {
			t.Fatal(err)
		}
	}
	// 6 jobs: one dropped, one duplicated → 6 deliveries expected.
	var results []Result
	deadline := time.After(5 * time.Second)
	for len(results) < 6 {
		select {
		case res := <-ch.Results():
			results = append(results, res)
		case <-deadline:
			t.Fatalf("got %d of 6 deliveries", len(results))
		}
	}
	byJob := make(map[uint64][]Result)
	for _, r := range results {
		byJob[r.JobID] = append(byJob[r.JobID], r)
	}
	if len(byJob[1]) != 0 {
		t.Fatal("dropped job delivered a result")
	}
	if len(byJob[2]) != 2 {
		t.Fatalf("duplicated job delivered %d results", len(byJob[2]))
	}
	if !reflect.DeepEqual(byJob[2][0], byJob[2][1]) {
		t.Fatal("duplicate deliveries differ")
	}
	if _, err := DecodeEntry(byJob[0][0].Blob, byJob[0][0].Sum); err != nil {
		t.Fatalf("clean job corrupt: %v", err)
	}
	if _, err := DecodeEntry(byJob[3][0].Blob, byJob[3][0].Sum); !errors.Is(err, ErrCorruptResult) {
		t.Fatalf("corrupt fault undetected: %v", err)
	}
	if _, err := DecodeEntry(byJob[4][0].Blob, byJob[4][0].Sum); !errors.Is(err, ErrCorruptResult) {
		t.Fatalf("truncate fault undetected: %v", err)
	}
	if byJob[5][0].Err == "" {
		t.Fatal("error fault delivered a healthy result")
	}
}

func TestChaosDelayArrivesLate(t *testing.T) {
	plan := chaosPlan(map[[2]uint64]Fault{{1, 0}: FaultDelay})
	ch := NewChaos(NewLoopback(fakeHandler, 1), plan, 80*time.Millisecond)
	defer ch.Close()
	start := time.Now()
	if err := ch.Submit(testJob(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch.Results():
		if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
			t.Fatalf("delayed result arrived after only %v", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed result never arrived")
	}
}

func TestChaosDisconnectKillsTheStream(t *testing.T) {
	plan := chaosPlan(map[[2]uint64]Fault{{1, 0}: FaultDisconnect})
	ch := NewChaos(NewLoopback(fakeHandler, 1), plan, 0)
	if err := ch.Submit(testJob(0)); err != nil { // healthy, may or may not land before the cut
		t.Fatal(err)
	}
	if err := ch.Submit(testJob(1)); err != nil { // trips the disconnect
		t.Fatal(err)
	}
	if err := ch.Submit(testJob(2)); err != nil { // after the cut: must vanish
		t.Fatal(err)
	}
	// Job 2 was accepted but the worker is "gone": nothing may arrive for
	// it. Give the pump a moment, then close and drain what survived.
	time.Sleep(50 * time.Millisecond)
	ch.Close()
	for res := range ch.Results() {
		if res.JobID == 2 {
			t.Fatal("result delivered after mid-stream disconnect")
		}
	}
}
