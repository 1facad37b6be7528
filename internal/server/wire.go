package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire codec of the hot bodies (DESIGN.md §9): the request and response
// bodies of search, insert and delete, and the error envelope. Each of
// those types has one encoder, appendJSON, which writes what json.Marshal
// writes, byte for byte; all but the error envelope, which the client reads
// only on a failure, have one scanner, scanJSON, over the bodies
// server.Client and the documented API send. A body the scanner does not
// take goes to encoding/json, so the accept/reject decision and the decoded
// values stay encoding/json's. Every other body is encoding/json's alone.

// wireEncoder is a hot body type's encoder: it appends the value's JSON, as
// json.Marshal would write it, to b. The only error is a float encoding/json
// refuses (NaN, ±Inf).
type wireEncoder interface {
	appendJSON(b []byte) ([]byte, error)
}

// wireDecoder is a hot body type's scanner: it decodes one value of the
// type's fixed schema into the receiver, or sets s.bad when the body leaves
// that schema.
type wireDecoder interface {
	scanJSON(s *scanner)
}

// maxBody is the largest request body the server reads.
const maxBody = 64 << 20

// maxPooledBuf is the largest buffer that goes back to bufPool: a large
// body's buffer is dropped rather than pinned.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// appendBody appends body's JSON, as json.Marshal writes it, to b: through
// the type's codec for a hot body, through encoding/json for any other.
func appendBody(b []byte, body any) ([]byte, error) {
	if e, ok := body.(wireEncoder); ok {
		return e.appendJSON(b)
	}
	out, err := json.Marshal(body)
	return append(b, out...), err
}

// decodeBody decodes one body into dst. A hot type's scanner takes the
// bodies of its schema; any other body, and every body of another type,
// goes to encoding/json, with DisallowUnknownFields when strict (the
// server) and leniently otherwise (the client).
func decodeBody(b []byte, dst any, strict bool) error {
	if d, ok := dst.(wireDecoder); ok {
		if scanBody(b, d) {
			return nil
		}
		reflect.ValueOf(dst).Elem().SetZero() // the scanner may have written part of it
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(dst)
}

// scanBody decodes b into d with d's scanner and reports whether the
// scanner took the whole body: one value and nothing after it but
// whitespace.
func scanBody(b []byte, d wireDecoder) bool {
	s := scanner{b: b}
	d.scanJSON(&s)
	return !s.bad && s.peek() == 0 && s.i == len(b)
}

// readBody appends all of r to b, growing it ahead to a size hint of at
// most 1 MiB (a Content-Length, -1 when unknown).
func readBody(r io.Reader, b []byte, hint int64) ([]byte, error) {
	if hint > 0 {
		b = slices.Grow(b, int(min(hint, 1<<20))+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// ---- encoding ----

// appendFloat appends f as encoding/json does: 'f' format, 'e' outside
// [1e-6, 1e21) with the exponent's leading zero cut.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// htmlSafe marks the ASCII bytes encoding/json writes as they are: every
// printable byte but '"', '\\' and the HTML-escaped '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it: HTML escaping,
// \b \f \n \r \t and \u00XX for the other control bytes, U+2028 and
// U+2029 escaped, and \ufffd for each byte of invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
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
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendStrings appends a []string, null when nil.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

func appendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

func (r SearchRequest) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"query":`...)
	b = appendStrings(b, r.Query)
	if r.K != 0 {
		b = append(b, `,"k":`...)
		b = appendInt(b, int64(r.K))
	}
	return append(b, '}'), nil
}

func (r InsertRequest) appendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	if r.Name != "" {
		b = append(b, `"name":`...)
		b = appendString(b, r.Name)
		b = append(b, ',')
	}
	b = append(b, `"elements":`...)
	b = appendStrings(b, r.Elements)
	return append(b, '}'), nil
}

func (r SearchResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			res := &r.Results[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"set_id":`...)
			b = appendInt(b, int64(res.SetID))
			b = append(b, `,"set_name":`...)
			b = appendString(b, res.SetName)
			b = append(b, `,"score":`...)
			var err error
			if b, err = appendFloat(b, res.Score); err != nil {
				return b, err
			}
			b = append(b, `,"verified":`...)
			b = strconv.AppendBool(b, res.Verified)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	st := &r.Stats
	b = append(b, `,"stats":{"candidates":`...)
	b = appendInt(b, int64(st.Candidates))
	b = append(b, `,"iub_pruned":`...)
	b = appendInt(b, int64(st.IUBPruned))
	b = append(b, `,"no_em":`...)
	b = appendInt(b, int64(st.NoEM))
	b = append(b, `,"em_early":`...)
	b = appendInt(b, int64(st.EMEarly))
	b = append(b, `,"em_full":`...)
	b = appendInt(b, int64(st.EMFull))
	b = append(b, `,"stream_tuples":`...)
	b = appendInt(b, int64(st.StreamTuples))
	b = append(b, `,"stream_retrieved":`...)
	b = appendInt(b, int64(st.StreamRetrieved))
	b = append(b, `,"stream_cut":`...)
	b = strconv.AppendBool(b, st.StreamCut)
	b = append(b, `,"segments":`...)
	b = appendInt(b, int64(st.Segments))
	b = append(b, `,"refine_us":`...)
	b = appendInt(b, st.RefineUS)
	b = append(b, `,"postproc_us":`...)
	b = appendInt(b, st.PostprocUS)
	b = append(b, `,"memory_bytes":`...)
	b = appendInt(b, st.MemoryBytes)
	return append(b, "}}"...), nil
}

func (r InsertResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"set_id":`...)
	b = appendInt(b, int64(r.SetID))
	b = append(b, `,"sets":`...)
	b = appendInt(b, int64(r.Sets))
	return append(b, '}'), nil
}

func (r DeleteResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"deleted":`...)
	b = strconv.AppendBool(b, r.Deleted)
	b = append(b, `,"sets":`...)
	b = appendInt(b, int64(r.Sets))
	return append(b, '}'), nil
}

func (e errorBody) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"error":`...)
	b = appendString(b, e.Error)
	if e.Code != "" {
		b = append(b, `,"code":`...)
		b = appendString(b, e.Code)
	}
	if e.Collection != "" {
		b = append(b, `,"collection":`...)
		b = appendString(b, e.Collection)
	}
	if e.Resource != "" {
		b = append(b, `,"resource":`...)
		b = appendString(b, e.Resource)
	}
	if e.Limit != 0 {
		b = append(b, `,"limit":`...)
		b = appendInt(b, e.Limit)
	}
	if e.Used != 0 {
		b = append(b, `,"used":`...)
		b = appendInt(b, e.Used)
	}
	return append(b, '}'), nil
}

// ---- decoding ----

// scanner reads one body of a fixed schema. It takes keys spelled exactly
// as their tags, each at most once; strings with any escape and valid UTF-8;
// integers where the field is an integer; null only where a slice may be
// nil. Anything else sets bad, and the body goes to encoding/json.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes c, the next byte after whitespace.
func (s *scanner) expect(c byte) bool {
	if s.bad || s.peek() != c {
		s.bad = true
		return false
	}
	s.i++
	return true
}

// literal consumes lit if it comes next.
func (s *scanner) literal(lit string) bool {
	if s.peek() != lit[0] || len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// object scans an object whose keys are names, each at most once, and
// hands each value to field with the index of its key.
func (s *scanner) object(names []string, field func(int)) {
	if !s.expect('{') {
		return
	}
	if s.peek() == '}' {
		s.i++
		return
	}
	var seen uint64
	for !s.bad {
		f := s.key(names)
		if f < 0 || seen&(1<<f) != 0 || !s.expect(':') {
			s.bad = true
			return
		}
		seen |= 1 << f
		field(f)
		if s.bad {
			return
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return
		default:
			s.bad = true
		}
	}
}

// key scans an object key and returns its index in names, -1 for a key
// that is not spelled exactly as one of them.
func (s *scanner) key(names []string) int {
	if s.peek() != '"' {
		return -1
	}
	start := s.i + 1
	end := bytes.IndexByte(s.b[start:], '"')
	if end < 0 {
		return -1
	}
	key := s.b[start : start+end]
	s.i = start + end + 1
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	return -1
}

// array scans an array, handing each element to elem.
func (s *scanner) array(elem func()) {
	if !s.expect('[') {
		return
	}
	if s.peek() == ']' {
		s.i++
		return
	}
	for !s.bad {
		elem()
		if s.bad {
			return
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return
		default:
			s.bad = true
		}
	}
}

// strings scans a []string: nil for null, empty and non-nil for [], as
// encoding/json decodes them.
func (s *scanner) strings() []string {
	if s.literal("null") {
		return nil
	}
	out := make([]string, 0, 16)
	s.array(func() { out = append(out, s.str()) })
	return out
}

func (s *scanner) boolean() bool {
	switch {
	case s.literal("true"):
		return true
	case s.literal("false"):
		return false
	}
	s.bad = true
	return false
}

// number scans a JSON number and returns its text, and whether it has
// neither a fraction nor an exponent.
func (s *scanner) number() (lit []byte, integer bool) {
	s.peek()
	b, i := s.b, s.i
	digits := func() int {
		n := 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			n++
		}
		return n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		s.bad = true
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		integer = false
		if digits() == 0 {
			s.bad = true
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integer = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			s.bad = true
			return nil, false
		}
	}
	lit, s.i = b[s.i:i], i
	return lit, integer
}

// int64 scans an integer in int64's range.
func (s *scanner) int64() int64 {
	lit, integer := s.number()
	if !integer {
		s.bad = true
		return 0
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 19 {
		s.bad = true
		return 0
	}
	var u uint64
	for _, c := range lit {
		u = u*10 + uint64(c-'0')
	}
	if neg && u <= 1<<63 {
		return -int64(u)
	}
	if !neg && u < 1<<63 {
		return int64(u)
	}
	s.bad = true
	return 0
}

// int scans an integer in int's range.
func (s *scanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}

// float scans a number strconv.ParseFloat takes without a range error, as
// encoding/json requires.
func (s *scanner) float() float64 {
	lit, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

// str scans a string of valid UTF-8 with any escapes, decoded as
// encoding/json decodes it.
func (s *scanner) str() string {
	if s.bad || s.peek() != '"' {
		s.bad = true
		return ""
	}
	b := s.b
	start := s.i + 1
	ascii := true
	for i := start; i < len(b); i++ {
		c := b[i]
		if c >= utf8.RuneSelf {
			ascii = false
			continue
		}
		if c == '"' {
			if ascii || utf8.Valid(b[start:i]) {
				s.i = i + 1
				return string(b[start:i])
			}
			break
		}
		if c == '\\' {
			return s.unescape(start, i)
		}
		if c < ' ' {
			break
		}
	}
	s.bad = true
	return ""
}

// unescape finishes a string whose first escape is at b[i]: valid
// surrogate pairs combine, and any other surrogate escape decodes to
// U+FFFD, as in encoding/json.
func (s *scanner) unescape(start, i int) string {
	b := s.b
	out := make([]byte, 0, 2*(i-start)+16)
	run := start // the raw bytes not yet copied to out
	for i < len(b) {
		c := b[i]
		if c != '"' && c != '\\' {
			if c < ' ' {
				break
			}
			i++
			continue
		}
		if !utf8.Valid(b[run:i]) {
			break
		}
		out = append(out, b[run:i]...)
		if c == '"' {
			s.i = i + 1
			return string(out)
		}
		if i+1 >= len(b) {
			break
		}
		switch e := b[i+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(b, i)
			if r < 0 {
				s.bad = true
				return ""
			}
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(b, i+6)); pair != utf8.RuneError {
					r = pair
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			out = utf8.AppendRune(out, r)
			i += 4
		default:
			s.bad = true
			return ""
		}
		i += 2
		run = i
	}
	s.bad = true
	return ""
}

// hex4 reads the \uXXXX escape at b[i:], -1 if there is none.
func hex4(b []byte, i int) rune {
	if i+6 > len(b) || b[i] != '\\' || b[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[i+2 : i+6] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

var (
	searchRequestKeys  = []string{"query", "k"}
	insertRequestKeys  = []string{"name", "elements"}
	searchResponseKeys = []string{"results", "stats"}
	searchResultKeys   = []string{"set_id", "set_name", "score", "verified"}
	searchStatsKeys    = []string{"candidates", "iub_pruned", "no_em", "em_early", "em_full", "stream_tuples", "stream_retrieved", "stream_cut", "segments", "refine_us", "postproc_us", "memory_bytes"}
	insertResponseKeys = []string{"set_id", "sets"}
	deleteResponseKeys = []string{"deleted", "sets"}
)

func (r *SearchRequest) scanJSON(s *scanner) {
	s.object(searchRequestKeys, func(f int) {
		if f == 0 {
			r.Query = s.strings()
		} else {
			r.K = s.int()
		}
	})
}

func (r *InsertRequest) scanJSON(s *scanner) {
	s.object(insertRequestKeys, func(f int) {
		if f == 0 {
			r.Name = s.str()
		} else {
			r.Elements = s.strings()
		}
	})
}

func (r *SearchResponse) scanJSON(s *scanner) {
	s.object(searchResponseKeys, func(f int) {
		if f == 1 {
			r.scanStats(s)
			return
		}
		if s.literal("null") {
			r.Results = nil
			return
		}
		r.Results = make([]SearchResult, 0, 16)
		s.array(func() {
			var res SearchResult
			s.object(searchResultKeys, func(f int) {
				switch f {
				case 0:
					res.SetID = s.int()
				case 1:
					res.SetName = s.str()
				case 2:
					res.Score = s.float()
				case 3:
					res.Verified = s.boolean()
				}
			})
			r.Results = append(r.Results, res)
		})
	})
}

func (r *SearchResponse) scanStats(s *scanner) {
	st := &r.Stats
	s.object(searchStatsKeys, func(f int) {
		switch f {
		case 0:
			st.Candidates = s.int()
		case 1:
			st.IUBPruned = s.int()
		case 2:
			st.NoEM = s.int()
		case 3:
			st.EMEarly = s.int()
		case 4:
			st.EMFull = s.int()
		case 5:
			st.StreamTuples = s.int()
		case 6:
			st.StreamRetrieved = s.int()
		case 7:
			st.StreamCut = s.boolean()
		case 8:
			st.Segments = s.int()
		case 9:
			st.RefineUS = s.int64()
		case 10:
			st.PostprocUS = s.int64()
		case 11:
			st.MemoryBytes = s.int64()
		}
	})
}

func (r *InsertResponse) scanJSON(s *scanner) {
	s.object(insertResponseKeys, func(f int) {
		if f == 0 {
			r.SetID = s.int()
		} else {
			r.Sets = s.int()
		}
	})
}

func (r *DeleteResponse) scanJSON(s *scanner) {
	s.object(deleteResponseKeys, func(f int) {
		if f == 0 {
			r.Deleted = s.boolean()
		} else {
			r.Sets = s.int()
		}
	})
}
