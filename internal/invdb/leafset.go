package invdb

import (
	"encoding/binary"

	"cspm/internal/graph"
)

// LeafsetID identifies an interned leafset (a sorted set of attribute
// values). Leafsets are global entities: the same leafset may appear in
// lines under many coresets, and the merge step of CSPM operates on leafset
// pairs across all their shared coresets at once (paper §IV-E).
type LeafsetID int32

// LeafsetTable interns sorted attribute-value sets to dense LeafsetIDs.
type LeafsetTable struct {
	byKey   map[string]LeafsetID
	content [][]graph.AttrID
	keyBuf  []byte // Intern's lookup key, reused across calls
}

// NewLeafsetTable returns an empty table.
func NewLeafsetTable() *LeafsetTable {
	return &LeafsetTable{byKey: make(map[string]LeafsetID)}
}

// appendLeafsetKey appends the interning key encoding of vals to dst: the
// single source of truth of the key, shared by every lookup and insert.
func appendLeafsetKey(dst []byte, vals []graph.AttrID) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// Intern returns the id of the sorted value set vals, assigning a fresh id on
// first sight. vals must be sorted ascending and duplicate-free; the table
// takes ownership of the slice. Only a first sight allocates: the key is
// looked up through a reused buffer and copied into a string on a miss.
func (t *LeafsetTable) Intern(vals []graph.AttrID) LeafsetID {
	if id, ok := t.lookup(vals, &t.keyBuf); ok {
		return id
	}
	id := LeafsetID(len(t.content))
	t.byKey[string(t.keyBuf)] = id
	t.content = append(t.content, vals)
	return id
}

// lookup returns the id of the sorted value set vals without interning it.
// The interning key is encoded into *buf (grown as needed, reused across
// calls) and passed to the map as a string conversion the compiler keeps on
// the stack, so the lookup allocates nothing.
func (t *LeafsetTable) lookup(vals []graph.AttrID, buf *[]byte) (LeafsetID, bool) {
	b := appendLeafsetKey((*buf)[:0], vals)
	*buf = b
	id, ok := t.byKey[string(b)]
	return id, ok
}

// Single interns the one-element leafset {a}, allocating its content only
// on first sight.
func (t *LeafsetTable) Single(a graph.AttrID) LeafsetID {
	one := [1]graph.AttrID{a}
	if id, ok := t.lookup(one[:], &t.keyBuf); ok {
		return id
	}
	return t.Intern([]graph.AttrID{a})
}

// Values returns the sorted content of leafset id. Callers must not modify
// the returned slice.
func (t *LeafsetTable) Values(id LeafsetID) []graph.AttrID { return t.content[id] }

// Size reports the number of distinct leafsets interned so far.
func (t *LeafsetTable) Size() int { return len(t.content) }

// Union interns the union of two leafsets and returns its id.
func (t *LeafsetTable) Union(a, b LeafsetID) LeafsetID {
	va, vb := t.content[a], t.content[b]
	return t.Intern(appendUnion(make([]graph.AttrID, 0, len(va)+len(vb)), va, vb))
}

// appendUnion appends the sorted union of the sorted value sets va and vb
// to dst and returns it.
func appendUnion(dst, va, vb []graph.AttrID) []graph.AttrID {
	i, j := 0, 0
	for i < len(va) && j < len(vb) {
		switch {
		case va[i] < vb[j]:
			dst = append(dst, va[i])
			i++
		case va[i] > vb[j]:
			dst = append(dst, vb[j])
			j++
		default:
			dst = append(dst, va[i])
			i++
			j++
		}
	}
	dst = append(dst, va[i:]...)
	return append(dst, vb[j:]...)
}
