// Package shardrpc ships shard mining jobs to workers and collects their
// results, turning the component pipeline's parallel search into a
// multi-machine fan-out (see DESIGN.md "Distributed shard exchange").
//
// The package is transport and policy only: a Job carries everything a
// worker needs to mine one attribute-closed component group without ever
// seeing the graph — the group's rows in local vertex and value ids, the
// global ids of its values, the graph's occurrence count N and the search
// options — and a Result carries back a checksummed gob blob of the
// shardcache.Entry the group mined to. What to do with entries (merge,
// cache, fall back) is the coordinator's business (cspm.MineDistributed);
// how to mine a job is the injected Handler's (cspm.ExecuteShardJob).
//
// Three Transport implementations cover the deployment spectrum: Loopback
// runs jobs on an in-process worker pool (the zero-config default and the
// bench scenario), Client speaks length-delimited gob over TCP to one or
// more Server processes (cmd/cspm-worker), and Chaos wraps any of them with
// a deterministic fault plan — drop, delay, duplicate, corrupt, truncate,
// error, disconnect — for the equivalence-under-failure test suite.
package shardrpc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"

	"cspm/internal/graph"
	"cspm/internal/shardcache"
)

// Job is one shard mining job: a self-contained description of an
// attribute-closed component group. Such a group holds every occurrence of
// its values, so its whole input is its own rows plus one global number,
// the graph's occurrence count N. Local vertex ids are 0..len(Attrs)-1 and
// local value ids 0..len(Values)-1; local value i is global value
// Values[i], and the order of local ids is the order of global ids, which
// keeps a worker's entry bit-identical to any other run of the group.
type Job struct {
	// ID identifies the job within one mining run; workers echo it in the
	// Result so the coordinator can match (and deduplicate) responses.
	ID uint64
	// Values lists the group's global attribute ids, strictly ascending:
	// every value some row carries, and no other.
	Values []graph.AttrID
	// Total is N, the graph's total attribute-value occurrence count. The
	// group's standard-table lengths are −log2(f/N), with f counted from
	// the rows.
	Total int
	// Attrs[li] lists the sorted local value ids of local vertex li.
	Attrs [][]graph.AttrID
	// Adj[li] lists the sorted local ids of li's neighbours. Component
	// groups are edge-closed, so the rows describe the complete stars.
	Adj [][]graph.VertexID
	// Variant, MaxIterations, DisableModelCost mirror the cspm.Options
	// fields that shape the search result; Workers is the worker's local
	// evaluator budget (0 = all of its cores) and never changes the result.
	Variant          int
	MaxIterations    int
	DisableModelCost bool
	Workers          int
}

// Validate checks that the job has the shape a coordinator builds, so a
// malformed, truncated or hand-built job fails cleanly on the worker
// instead of panicking mid-mine or mining into an entry that describes a
// different graph: Values non-negative and strictly ascending, every
// listed value carried by some row, ids in range, attribute and neighbour
// rows strictly ascending, a simple undirected adjacency (no self-loop,
// every edge listed on both sides), and a Total no smaller than the rows'
// occurrence count. It runs in time linear in the job's size.
func (j Job) Validate() error {
	for i, v := range j.Values {
		if v < 0 || (i > 0 && j.Values[i-1] >= v) {
			return fmt.Errorf("shardrpc: job %d: values not non-negative and strictly ascending at %d", j.ID, i)
		}
	}
	if j.Total < 0 {
		return fmt.Errorf("shardrpc: job %d: negative total %d", j.ID, j.Total)
	}
	if len(j.Adj) != len(j.Attrs) {
		return fmt.Errorf("shardrpc: job %d: %d adjacency rows for %d vertices", j.ID, len(j.Adj), len(j.Attrs))
	}
	nV := len(j.Values)
	carried := make([]bool, nV)
	occurrences := 0
	for li, as := range j.Attrs {
		for i, a := range as {
			if a < 0 || int(a) >= nV {
				return fmt.Errorf("shardrpc: job %d: vertex %d carries value %d outside [0,%d)", j.ID, li, a, nV)
			}
			if i > 0 && as[i-1] >= a {
				return fmt.Errorf("shardrpc: job %d: vertex %d: attributes not strictly ascending", j.ID, li)
			}
			carried[a] = true
		}
		occurrences += len(as)
	}
	if i := slices.Index(carried, false); i >= 0 {
		return fmt.Errorf("shardrpc: job %d: value %d is carried by no vertex", j.ID, j.Values[i])
	}
	if j.Total < occurrences {
		return fmt.Errorf("shardrpc: job %d: total %d below the rows' %d occurrences", j.ID, j.Total, occurrences)
	}
	// Sorted rows put u's lower neighbours in a prefix of Adj[u], and the
	// scan meets the edges {v, u}, v < u, in that prefix's order: matched[u]
	// counts the prefix entries seen from the other side.
	n := len(j.Attrs)
	matched := make([]int, n)
	for v, row := range j.Adj {
		for i, u := range row {
			switch {
			case int(u) >= n:
				return fmt.Errorf("shardrpc: job %d: vertex %d links to %d outside [0,%d)", j.ID, v, u, n)
			case i > 0 && row[i-1] >= u:
				return fmt.Errorf("shardrpc: job %d: vertex %d: neighbours not strictly ascending", j.ID, v)
			case int(u) == v:
				return fmt.Errorf("shardrpc: job %d: vertex %d links to itself", j.ID, v)
			case int(u) > v:
				if k := matched[u]; k >= len(j.Adj[u]) || int(j.Adj[u][k]) != v {
					return fmt.Errorf("shardrpc: job %d: edge {%d,%d} listed by vertex %d only", j.ID, v, u, v)
				}
				matched[u]++
			}
		}
	}
	for u, row := range j.Adj {
		if k := matched[u]; k < len(row) && int(row[k]) < u {
			return fmt.Errorf("shardrpc: job %d: edge {%d,%d} listed by vertex %d only", j.ID, row[k], u, u)
		}
	}
	return nil
}

// Result is a worker's response to one Job. Exactly one of Blob or Err is
// meaningful: a successful mine carries the entry blob and its checksum, a
// worker-side failure carries the error text.
type Result struct {
	JobID uint64
	// JobSum is the checksum of the job AS THE WORKER RECEIVED it
	// (JobChecksum). The coordinator compares it against the checksum of
	// the job it sent: a transport that mutated the job in flight — in a
	// way that still decodes and validates — mined the wrong shard, and the
	// mismatch rejects the result before it can poison the merge.
	JobSum [sha256.Size]byte
	// Blob is the gob-encoded shardcache.Entry — the same bytes the shard
	// cache's disk layer stores, so a remote result and a cache hit are
	// interchangeable downstream.
	Blob []byte
	// Sum is the SHA-256 of Blob, computed by the worker before the bytes
	// travel; the coordinator rejects results whose blob no longer matches.
	Sum [sha256.Size]byte
	// Err is the worker-side failure, "" on success.
	Err string
}

// JobChecksum digests a job's full content from a canonical byte stream:
// every field in declaration order, every integer a varint, every list
// prefixed by its length, so the stream is prefix-free and a function of
// the job alone (a gob stream would also depend on the type ids the
// process assigned before). Sender and worker compute it independently on
// their own copy, and persistent cache keys are derived from it.
func JobChecksum(j Job) [sha256.Size]byte {
	b := binary.AppendUvarint(nil, j.ID)
	b = appendInts(b, j.Values)
	b = binary.AppendVarint(b, int64(j.Total))
	b = binary.AppendUvarint(b, uint64(len(j.Attrs)))
	for _, row := range j.Attrs {
		b = appendInts(b, row)
	}
	b = binary.AppendUvarint(b, uint64(len(j.Adj)))
	for _, row := range j.Adj {
		b = appendInts(b, row)
	}
	b = binary.AppendVarint(b, int64(j.Variant))
	b = binary.AppendVarint(b, int64(j.MaxIterations))
	if j.DisableModelCost {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(j.Workers))
	return sha256.Sum256(b)
}

// appendInts appends xs to b, length first.
func appendInts[T graph.AttrID | graph.VertexID](b []byte, xs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// ErrCorruptResult tags results whose blob failed its checksum or did not
// decode — the transport delivered bytes the worker never produced (or a
// truncated prefix of them).
var ErrCorruptResult = errors.New("shardrpc: result blob corrupt")

// ErrClosed is returned by Submit after the transport closed.
var ErrClosed = errors.New("shardrpc: transport closed")

// JobError is a clean worker-side failure (the worker ran, and said no).
type JobError struct {
	JobID uint64
	Msg   string
}

func (e *JobError) Error() string {
	return fmt.Sprintf("shardrpc: job %d failed on worker: %s", e.JobID, e.Msg)
}

// EncodeEntry serialises e into the wire blob and its checksum.
func EncodeEntry(e *shardcache.Entry) ([]byte, [sha256.Size]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, [sha256.Size]byte{}, fmt.Errorf("shardrpc: encode entry: %w", err)
	}
	return buf.Bytes(), sha256.Sum256(buf.Bytes()), nil
}

// DecodeEntry verifies blob against sum and decodes it. Any mismatch or
// decode failure reports ErrCorruptResult: a flipped or missing byte must
// surface as a retryable transport fault, never as a silently wrong model.
func DecodeEntry(blob []byte, sum [sha256.Size]byte) (*shardcache.Entry, error) {
	if sha256.Sum256(blob) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch over %d bytes", ErrCorruptResult, len(blob))
	}
	e := &shardcache.Entry{}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(e); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptResult, err)
	}
	return e, nil
}

// Handler mines one job into an entry — the worker-side search, injected by
// the cspm package so this package stays mining-agnostic.
type Handler func(Job) (*shardcache.Entry, error)

// Transport moves jobs to workers and results back. Results may arrive out
// of order, duplicated, late, or — on faulty transports — never; consumers
// own matching, deduplication, timeouts and retries. Implementations must
// accept concurrent Submit calls.
type Transport interface {
	// Submit enqueues one job for execution. An error means the transport
	// could not accept the job at all (closed, all workers unreachable); an
	// accepted job may still never produce a result.
	Submit(job Job) error
	// Results delivers worker responses. The channel is closed when the
	// transport shuts down; a nil receive loop must treat that as "no
	// further results will ever arrive".
	Results() <-chan Result
	// Close releases the transport's resources and eventually closes the
	// results channel. Close is idempotent.
	Close() error
}

// execute runs h over job, recovering panics into errors (one poisoned job
// must not take down a worker serving other shards), and wraps the outcome
// in a Result stamped with the received job's checksum.
func execute(h Handler, job Job) Result {
	jobSum := JobChecksum(job)
	e, err := func() (e *shardcache.Entry, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("handler panic: %v", r)
			}
		}()
		return h(job)
	}()
	if err != nil {
		return Result{JobID: job.ID, JobSum: jobSum, Err: err.Error()}
	}
	blob, sum, err := EncodeEntry(e)
	if err != nil {
		return Result{JobID: job.ID, JobSum: jobSum, Err: err.Error()}
	}
	return Result{JobID: job.ID, JobSum: jobSum, Blob: blob, Sum: sum}
}
