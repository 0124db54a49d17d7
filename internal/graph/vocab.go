package graph

import (
	"fmt"
	"maps"
	"slices"
)

// CompareAttrs orders attribute-id slices lexicographically (shorter prefix
// first). It is the single ordering shared by pattern ranking tie-breaks and
// the canonical description-length summation, which must never diverge.
func CompareAttrs(a, b []AttrID) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// AttrID is the interned identifier of a nominal attribute value. CSPM
// manipulates attribute values heavily (set intersections, map keys), so the
// whole pipeline works on dense int32 ids and only translates back to strings
// at the reporting boundary.
type AttrID int32

// Vocab interns attribute-value strings to dense AttrIDs and back. It is not
// safe for concurrent mutation; build it up front, then share it read-only.
type Vocab struct {
	byName map[string]AttrID
	names  []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{byName: make(map[string]AttrID)}
}

// ID interns name, assigning a fresh id on first sight.
func (v *Vocab) ID(name string) AttrID {
	if id, ok := v.byName[name]; ok {
		return id
	}
	id := AttrID(len(v.names))
	v.byName[name] = id
	v.names = append(v.names, name)
	return id
}

// clone returns a copy of v that interns independently of it.
func (v *Vocab) clone() *Vocab {
	return &Vocab{byName: maps.Clone(v.byName), names: slices.Clone(v.names)}
}

// Lookup returns the id of name without interning it.
func (v *Vocab) Lookup(name string) (AttrID, bool) {
	id, ok := v.byName[name]
	return id, ok
}

// Name translates an id back to its string. It panics on out-of-range ids,
// which always indicates a vocabulary mix-up between graphs.
func (v *Vocab) Name(id AttrID) string {
	if int(id) < 0 || int(id) >= len(v.names) {
		panic(fmt.Sprintf("graph: AttrID %d outside vocabulary of size %d", id, len(v.names)))
	}
	return v.names[id]
}

// Size reports the number of distinct attribute values interned so far.
func (v *Vocab) Size() int { return len(v.names) }

// Names returns all interned names indexed by AttrID. Callers must not
// modify the returned slice.
func (v *Vocab) Names() []string { return v.names }
