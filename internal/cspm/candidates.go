package cspm

import (
	"container/heap"

	"cspm/internal/invdb"
)

// pairKey packs an unordered leafset pair into one comparable key.
func pairKey(a, b invdb.LeafsetID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func unpackPair(k uint64) (invdb.LeafsetID, invdb.LeafsetID) {
	return invdb.LeafsetID(uint32(k >> 32)), invdb.LeafsetID(uint32(k))
}

// candEntry is a heap entry; seq invalidates superseded entries lazily.
type candEntry struct {
	key  uint64
	gain float64
	seq  uint64
}

type candHeap []candEntry

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].key < h[j].key // deterministic tie-break
}
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(candEntry)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// candidateSet is the priority queue of leafset pairs with positive gain,
// with lazy deletion: the map holds the live (gain, seq) per pair, the heap
// may hold stale entries that are skipped on pop.
type candidateSet struct {
	heap candHeap
	live map[uint64]candEntry
	seq  uint64
}

func newCandidateSet() *candidateSet {
	return &candidateSet{live: make(map[uint64]candEntry)}
}

// Set inserts or updates the pair's gain.
func (cs *candidateSet) Set(a, b invdb.LeafsetID, gain float64) {
	cs.seq++
	e := candEntry{key: pairKey(a, b), gain: gain, seq: cs.seq}
	cs.live[e.key] = e
	heap.Push(&cs.heap, e)
}

// Remove drops the pair if present.
func (cs *candidateSet) Remove(a, b invdb.LeafsetID) {
	delete(cs.live, pairKey(a, b))
}

// Contains reports whether the pair is live.
func (cs *candidateSet) Contains(a, b invdb.LeafsetID) bool {
	_, ok := cs.live[pairKey(a, b)]
	return ok
}

// PeekGain reports the largest live gain without removing it, discarding
// stale heap prefixes on the way.
func (cs *candidateSet) PeekGain() (float64, bool) {
	for cs.heap.Len() > 0 {
		e := cs.heap[0]
		cur, live := cs.live[e.key]
		if live && cur.seq == e.seq {
			return e.gain, true
		}
		heap.Pop(&cs.heap)
	}
	return 0, false
}

// PopMax removes and returns the live pair with the largest gain.
func (cs *candidateSet) PopMax() (a, b invdb.LeafsetID, gain float64, ok bool) {
	for cs.heap.Len() > 0 {
		e := heap.Pop(&cs.heap).(candEntry)
		cur, live := cs.live[e.key]
		if !live || cur.seq != e.seq {
			continue // stale entry superseded by Set/Remove
		}
		delete(cs.live, e.key)
		a, b = unpackPair(e.key)
		return a, b, e.gain, true
	}
	return 0, 0, 0, false
}
