package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// wireStrings are the strings whose encoding differs most between
// encoders: HTML-escaped bytes, the JavaScript line separators, control
// bytes, invalid UTF-8, quotes and backslashes, and multi-byte runes.
var wireStrings = []string{
	"",
	"plain",
	"<script>&amp;</script>",
	"line\u2028para\u2029end",
	"\x00\x01\x07\x08\x0c\x0a\x0d\x09\x1b\x1f\x7f",
	"bad \xff\xfe utf8 \xc3 \xe2\x82",
	`"quoted" \back\slash/ 'single'`,
	"h\u00e9llo \u4e16\u754c \U0001F600 \ufffd",
}

// wireFloats straddle the switch between 'f' and 'e' formats.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.999999999999999e-7, -1e-7, 1e-9,
	1e20, 1e21, 9.99999999999999e20, 1.5e300, 5e-324, math.MaxFloat64,
	123456789.125, 7.853981633974483, 0.1 + 0.2,
}

func goldenResults() []SearchResult {
	var out []SearchResult
	for i, f := range wireFloats {
		out = append(out, SearchResult{
			SetID:    i * 7919,
			SetName:  wireStrings[i%len(wireStrings)],
			Score:    f,
			Verified: i%2 == 0,
		})
	}
	out[0].SetID, out[1].SetID = math.MaxInt64, math.MinInt64
	return out
}

var goldenStats = SearchStats{
	Candidates: 12, IUBPruned: 3, NoEM: 4, EMEarly: 1, EMFull: math.MaxInt64,
	StreamTuples: 99, StreamRetrieved: -1, StreamCut: true, Segments: 2,
	RefineUS: math.MaxInt64, PostprocUS: math.MinInt64, MemoryBytes: 1 << 40,
}

// goldenResponses are server-side bodies: their encoding must equal
// json.NewEncoder's.
func goldenResponses() []any {
	res := goldenResults()
	return []any{
		SearchResponse{},
		SearchResponse{Results: []SearchResult{}},
		SearchResponse{Results: res, Stats: goldenStats},
		InsertResponse{SetID: math.MaxInt64},
		InsertResponse{SetID: -3, Sets: 17},
		DeleteResponse{},
		DeleteResponse{Deleted: true, Sets: 3},
		errorBody{},
		errorBody{Error: wireStrings[3] + wireStrings[4]},
		errorBody{Error: "quota", Code: "quota_exceeded", Collection: "t<1>", Resource: "bytes", Limit: math.MaxInt64, Used: -1},
	}
}

// goldenRequests are client-side bodies: their encoding must equal
// json.Marshal's.
func goldenRequests() []any {
	return []any{
		SearchRequest{},
		SearchRequest{Query: []string{}},
		SearchRequest{Query: wireStrings, K: 5},
		SearchRequest{Query: []string{"a"}, K: math.MaxInt64},
		SearchRequest{Query: []string{"a"}, K: -1},
		InsertRequest{},
		InsertRequest{Elements: []string{}},
		InsertRequest{Name: "a&b\u2028", Elements: wireStrings},
	}
}

// TestWireGolden holds every hot type's encoding to encoding/json's byte
// for byte: the server's responses (writeJSON: body, Content-Length, the
// trailing newline) to json.NewEncoder's, and every body's appendJSON to
// json.Marshal's.
func TestWireGolden(t *testing.T) {
	for i, v := range append(goldenRequests(), goldenResponses()...) {
		if _, ok := v.(wireEncoder); !ok {
			t.Fatalf("%T has no wire encoder", v)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendBody(nil, v)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("body %d (%T): appendJSON\n got %s (%v)\nwant %s", i, v, got, err, want)
		}
	}
	for i, v := range goldenResponses() {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("response %d (%T): writeJSON\n got %s\nwant %s", i, v, rec.Body.Bytes(), want.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Errorf("response %d: Content-Length %q, body %d bytes", i, cl, want.Len())
		}
	}
}

// TestWireScannerTakesEncodedBodies checks that every body the encoders
// write is taken by its type's scanner, not handed to encoding/json, and
// decodes to what encoding/json decodes. The error envelope, which has no
// scanner, is left out.
func TestWireScannerTakesEncodedBodies(t *testing.T) {
	for i, v := range append(goldenRequests(), goldenResponses()...) {
		b, _ := appendBody(nil, v)
		got := reflect.New(reflect.TypeOf(v))
		d, ok := got.Interface().(wireDecoder)
		if !ok {
			continue
		}
		if !scanBody(append(b, "\n \t\r"...), d) {
			t.Errorf("body %d (%T): the scanner refused %s", i, v, b)
			continue
		}
		want := reflect.New(reflect.TypeOf(v))
		if err := json.Unmarshal(b, want.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("body %d (%T): scanned %+v, encoding/json %+v", i, v, got.Elem(), want.Elem())
		}
	}
}

// wireEdgeBodies are bodies the scanner hands to encoding/json; they seed
// FuzzWireDecode.
var wireEdgeBodies = []string{
	`{"query":["a"],"K":5}`,         // a case-folded key
	`{"QUERY":["a"]}`,               // another
	`{"query":["a"],"\u006b":5}`,    // an escaped key
	`{"query":["a"],"extra":1}`,     // an unknown field
	`{"query":["a"],"query":["b"]}`, // a duplicate key
	"{\"query\":[\"a\",\"\xff\"]}",  // invalid UTF-8
	`{"query":["a"],"k":1.0}`,       // a non-integer number
	`{"query":["a"],"k":1e1}`,       // another
	`{"query":["a"],"k":99999999999999999999}`,
	`{"query":["a"]} {"k":2}`, // trailing bytes
	`{"query":["a"]}x`,        // more
	`{"query":null,"k":null}`, // null for an integer
	`{"query":["a",null]}`,    // null for a string
	`null`,
	``,
	`{"query":["\ud83d\ude00 \ud800 \udc00x \ud83dA"]}`,
	`{"query":["\u0000\b\f\n\r\t\/\"\\"]}`,
	`{"query":["\x"]}`,
	`{"query":["tab	in string"]}`,
	`{"query":["a"],}`,
	`{"query":["a",]}`,
	`{"name":"x","elements":["y"]}`,
	`{"query":["a"],"k":-0}`,
	`{"results":[{"set_id":1,"set_name":"s","score":-0,"verified":true}],"stats":{"candidates":1}}`,
	`{"results":null,"error":"e"}`,
	`{"set_id":1,"sets":2}`,
	`{"deleted":true,"sets":2}`,
	`{"error":"x","code":"quota_exceeded","limit":5,"used":6}`,
	`{"score":1e400}`,
	`{"results":[{"score":1E+2}]}`,
}

// wireDecodeCases are the types each side decodes with its strictness:
// the server's requests with DisallowUnknownFields, the client's responses
// leniently.
var wireDecodeCases = []struct {
	zero   func() any
	strict bool
}{
	{func() any { return new(SearchRequest) }, true},
	{func() any { return new(InsertRequest) }, true},
	{func() any { return new(SearchResponse) }, false},
	{func() any { return new(InsertResponse) }, false},
	{func() any { return new(DeleteResponse) }, false},
}

// referenceDecode is the decode the codec must agree with: encoding/json's
// Decoder, strict on the server, as before the codec.
func referenceDecode(b []byte, dst any, strict bool) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(dst)
}

// FuzzWireDecode holds decodeBody to encoding/json for any bytes, on every
// hot type: the same accept/reject decision, the same error text and
// reflect.DeepEqual values.
func FuzzWireDecode(f *testing.F) {
	for _, b := range wireEdgeBodies {
		f.Add([]byte(b))
	}
	for _, v := range append(goldenRequests(), goldenResponses()...) {
		b, _ := appendBody(nil, v)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range wireDecodeCases {
			got, want := c.zero(), c.zero()
			gotErr := decodeBody(b, got, c.strict)
			wantErr := referenceDecode(b, want, c.strict)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%T %q: decodeBody error %v, encoding/json %v", got, b, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T %q: decodeBody %+v, encoding/json %+v", got, b, got, want)
			}
		}
	})
}

// fuzzBytes hands out a fuzz input piece by piece, zeros once it runs out.
type fuzzBytes []byte

func (f *fuzzBytes) next(n int) []byte {
	n = min(n, len(*f))
	b := (*f)[:n]
	*f = (*f)[n:]
	return b
}

func (f *fuzzBytes) u64() uint64 {
	var a [8]byte
	copy(a[:], f.next(8))
	return binary.LittleEndian.Uint64(a[:])
}

func (f *fuzzBytes) str() string { return string(f.next(int(f.u64() % 12))) }

func (f *fuzzBytes) response() SearchResponse {
	var r SearchResponse
	if n := f.u64() % 6; n > 0 {
		r.Results = make([]SearchResult, n-1)
	}
	for i := range r.Results {
		score := math.Float64frombits(f.u64())
		if math.IsNaN(score) || math.IsInf(score, 0) {
			score = float64(f.u64()) / 1e9
		}
		r.Results[i] = SearchResult{SetID: int(f.u64()), SetName: f.str(), Score: score, Verified: f.u64()%2 == 0}
	}
	r.Stats = SearchStats{
		Candidates: int(f.u64()), IUBPruned: int(f.u64()), StreamCut: f.u64()%2 == 1,
		RefineUS: int64(f.u64()), MemoryBytes: int64(f.u64()),
	}
	return r
}

// FuzzWireRoundTrip encodes random responses with the server's codec and
// decodes them with the client's: the scanner takes every one, each score
// comes back with its bits, and the values equal encoding/json's own round
// trip (which, like the codec, writes invalid UTF-8 as U+FFFD).
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x80<a>\xff"))
	f.Fuzz(func(t *testing.T, in []byte) {
		fb := fuzzBytes(in)
		single := fb.response()
		b, err := appendBody(nil, single)
		if err != nil {
			t.Fatal(err)
		}
		var back, want SearchResponse
		if !scanBody(b, &back) {
			t.Fatalf("the scanner refused an encoded response: %s", b)
		}
		ref, _ := json.Marshal(single)
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("round trip %+v, encoding/json %+v", back, want)
		}
		for i, r := range single.Results {
			if math.Float64bits(back.Results[i].Score) != math.Float64bits(r.Score) {
				t.Fatalf("score %d: %v (%#x) came back %v (%#x)", i, r.Score, math.Float64bits(r.Score), back.Results[i].Score, math.Float64bits(back.Results[i].Score))
			}
		}
	})
}

// TestWriteJSONRefusesUnencodableBody: a body encoding/json refuses — a
// NaN or infinite float — answers 500 with the error envelope, not 200
// with an empty body.
func TestWriteJSONRefusesUnencodableBody(t *testing.T) {
	for _, body := range []any{
		OverlapResponse{Semantic: math.NaN()},
		SearchResponse{Results: []SearchResult{{Score: math.Inf(1)}}},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, body)
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError || !strings.Contains(eb.Error, "unsupported value") {
			t.Errorf("%T: status %d body %q (%v), want 500 with the error envelope", body, rec.Code, rec.Body.Bytes(), err)
		}
	}
}

// TestStageTimers: after N searches every stage sum of /v1/info is
// positive, and together they stay within the clients' wall time.
func TestStageTimers(t *testing.T) {
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Search(ds.Repo.Elements(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	wall := time.Since(start).Microseconds()
	tp := getInfo(t, ts).Throughput
	sums := map[string]int64{
		"decode": tp.DecodeUSSum, "admit": tp.AdmitUSSum, "queue_wait": tp.QueueWaitUSSum,
		"execute": tp.ExecuteUSSum, "encode": tp.EncodeUSSum,
	}
	var total int64
	for name, v := range sums {
		if v <= 0 {
			t.Errorf("%s_us_sum = %d after %d searches", name, v, n)
		}
		total += v
	}
	if total > wall {
		t.Errorf("stage sums %v add to %d us, more than the clients' %d us", sums, total, wall)
	}
}

// benchWriter is a reusable http.ResponseWriter for BenchmarkWireCycle.
type benchWriter struct {
	h    http.Header
	body bytes.Buffer
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) WriteHeader(int)             {}
func (w *benchWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// BenchmarkWireCycle is one search's four codec steps through the code
// that runs them: the client encodes a 20-element query, the server
// decodes it (decodeJSON) and encodes ten results (writeJSON), and the
// client decodes them (decodeResponse).
func BenchmarkWireCycle(b *testing.B) {
	query := make([]string, 20)
	for i := range query {
		query[i] = fmt.Sprintf("token%03d", i*37)
	}
	resp := SearchResponse{Stats: SearchStats{
		Candidates: 412, IUBPruned: 380, NoEM: 20, EMEarly: 5, EMFull: 7, StreamTuples: 66,
		StreamRetrieved: 46, Segments: 1, RefineUS: 256, PostprocUS: 32, MemoryBytes: 18432,
	}}
	for i := 0; i < 10; i++ {
		resp.Results = append(resp.Results, SearchResult{SetID: 1000 + i, SetName: fmt.Sprintf("set-%d", 1000+i), Score: 17.5 / float64(i+1), Verified: true})
	}
	w := &benchWriter{h: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw, err := appendBody(make([]byte, 0, 512), SearchRequest{Query: query, K: 10})
		if err != nil {
			b.Fatal(err)
		}
		r := &http.Request{Body: io.NopCloser(bytes.NewReader(raw)), ContentLength: int64(len(raw))}
		var req SearchRequest
		if err := decodeJSON(w, r, &req); err != nil {
			b.Fatal(err)
		}
		w.body.Reset()
		writeJSON(w, http.StatusOK, resp)
		var out SearchResponse
		hr := &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(&w.body), ContentLength: int64(w.body.Len())}
		if err := decodeResponse(hr, &out); err != nil {
			b.Fatal(err)
		}
		if len(req.Query) != 20 || len(out.Results) != 10 {
			b.Fatal("short decode")
		}
	}
}
