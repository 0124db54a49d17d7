package serve

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"cspm/internal/graph"
)

// A /patterns page is written straight from the snapshot: no PatternJSON,
// no name slices, no reflection. The bytes are exactly what
// json.NewEncoder(w).Encode(PatternsResponse{...}) writes — the same field
// order, encoding/json's float and HTML-safe string rules, names sorted as
// sort.Strings sorts them, and the encoder's trailing newline — so the wire
// format the golden fixtures pin does not move. The handler's reference
// implementation lives in page_test.go, and FuzzPatternsPage holds the two
// to the same bytes.

// pageWriter is one page's reusable state: the response bytes and the
// scratch a pattern's value ids are sorted in.
type pageWriter struct {
	buf []byte
	ids []graph.AttrID
}

// maxPooledPage bounds the buffers kept for reuse, so one huge page (long
// names at the maximum limit) does not pin its memory for good.
const maxPooledPage = 1 << 20

var pageWriters = sync.Pool{New: func() any { return new(pageWriter) }}

// appendPage writes the page of snap's pattern list (its multi-leaf view
// when multi is set) at offset and limit into pw.buf. It reports false, and
// leaves pw.buf unspecified, when a value is NaN or infinite: encoding/json
// refuses those, and the handler then answers as the encoder-backed one
// did, with the status and no body.
func (pw *pageWriter) appendPage(snap *Snapshot, offset, limit int, multi bool) bool {
	patterns := snap.Model.Patterns
	total := len(patterns)
	if multi {
		total = len(snap.multiLeaf)
	}
	end := offset
	if offset < total {
		end += min(limit, total-offset)
	}
	names := snap.Graph.Vocab().Names()
	b := append(pw.buf[:0], `{"generation":`...)
	b = strconv.AppendUint(b, snap.Generation, 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, `,"limit":`...)
	b = strconv.AppendInt(b, int64(limit), 10)
	b = append(b, `,"patterns":[`...)
	for i := offset; i < end; i++ {
		j := i
		if multi {
			j = int(snap.multiLeaf[i])
		}
		p := &patterns[j]
		if math.IsInf(p.CodeLen, 0) || math.IsNaN(p.CodeLen) {
			return false // fL/fc of two ints is always finite
		}
		if i > offset {
			b = append(b, ',')
		}
		b = append(b, `{"core":`...)
		b = pw.appendNames(b, names, p.CoreValues)
		b = append(b, `,"leaf":`...)
		b = pw.appendNames(b, names, p.LeafValues)
		b = append(b, `,"fl":`...)
		b = strconv.AppendInt(b, int64(p.FL), 10)
		b = append(b, `,"fc":`...)
		b = strconv.AppendInt(b, int64(p.FC), 10)
		b = append(b, `,"confidence":`...)
		b = appendJSONFloat(b, p.Confidence())
		b = append(b, `,"code_len":`...)
		b = appendJSONFloat(b, p.CodeLen)
		b = append(b, '}')
	}
	pw.buf = append(b, "]}\n"...)
	return true
}

// appendNames writes ids as a JSON array of their names in sort.Strings
// order, duplicates kept.
func (pw *pageWriter) appendNames(b []byte, names []string, ids []graph.AttrID) []byte {
	pw.ids = append(pw.ids[:0], ids...)
	slices.SortFunc(pw.ids, func(x, y graph.AttrID) int { return strings.Compare(names[x], names[y]) })
	b = append(b, '[')
	for k, id := range pw.ids {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, names[id])
	}
	return append(b, ']')
}

// appendJSONFloat appends a finite float64 as encoding/json renders it:
// the shortest round-trip digits, in exponent form below 1e-6 and from
// 1e21 up, with a one-digit negative exponent's leading zero dropped.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json quotes it with HTML escaping
// on: `"` and `\` backslashed, \b \f \n \r \t by name, other control bytes
// and < > & as \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028 and
// U+2029 as \u2028 and \u2029.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
