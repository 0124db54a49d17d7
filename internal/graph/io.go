package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The text format mirrors the paper's two-part input (§IV-F): an adjacency
// part and a vertex→attribute mapping part. One file, line-oriented:
//
//	# comments and blank lines are ignored
//	v <id> [<value> ...]           vertex attributes (id in 0..N-1)
//	e <u> <v>                      undirected edge
//
// Vertex count is inferred as max id + 1; a v line with no values just
// declares the vertex. Values may not contain whitespace. Each record names
// at most two vertices, so an input of r records may use ids below 2r only:
// Write names every vertex, and the bound keeps a short input from sizing
// the graph by an arbitrary id. An input that skips ids must name each
// vertex it uses, for example with a bare "v <id>" line.

// Load parses the text format from r.
func Load(r io.Reader) (*Graph, error) {
	type edge struct{ u, v uint64 }
	type vattr struct {
		v    uint64
		vals []string
	}
	var (
		edges   []edge
		vattrs  []vattr
		maxID   uint64
		maxLine int // the line maxID first appears on; 0 before any id
		records uint64
	)
	noteID := func(id uint64, lineNo int) {
		if id > maxID || maxLine == 0 {
			maxID, maxLine = id, lineNo
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "v":
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: line %d: v needs a vertex id", lineNo)
			}
			id, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex id %q", lineNo, fields[1])
			}
			vattrs = append(vattrs, vattr{v: id, vals: fields[2:]})
			noteID(id, lineNo)
			records++
		case "e":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: e needs exactly two vertex ids", lineNo)
			}
			u, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex id %q", lineNo, fields[1])
			}
			v, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex id %q", lineNo, fields[2])
			}
			edges = append(edges, edge{u, v})
			noteID(u, lineNo)
			noteID(v, lineNo)
			records++
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading input: %w", err)
	}
	if records == 0 {
		return NewBuilder(0).Build(), nil
	}
	if maxID >= 2*records {
		return nil, fmt.Errorf("graph: line %d: vertex id %d is out of range: %d records name at most %d vertices",
			maxLine, maxID, records, 2*records)
	}
	b := NewBuilder(int(maxID) + 1)
	for _, va := range vattrs {
		for _, val := range va.vals {
			if err := b.AddAttr(VertexID(va.v), val); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range edges {
		if err := b.AddEdge(VertexID(e.u), VertexID(e.v)); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Write serialises g in the text format accepted by Load. Output is
// deterministic: vertices ascending, then edges with u < v ascending.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		attrs := g.Attrs(VertexID(v))
		if len(attrs) == 0 {
			// A vertex with no attributes and no edges would leave no trace in
			// the output, and Load infers |V| as max id + 1 — so a bare v line
			// keeps isolated attributeless vertices (which dynamic add_vertex
			// creates routinely) from vanishing on a Write/Load roundtrip.
			if g.Degree(VertexID(v)) == 0 {
				if _, err := fmt.Fprintf(bw, "v %d\n", v); err != nil {
					return err
				}
			}
			continue
		}
		names := make([]string, len(attrs))
		for i, a := range attrs {
			names[i] = g.Vocab().Name(a)
		}
		sort.Strings(names)
		if _, err := fmt.Fprintf(bw, "v %d %s\n", v, strings.Join(names, " ")); err != nil {
			return err
		}
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if VertexID(u) < v {
				if _, err := fmt.Fprintf(bw, "e %d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
