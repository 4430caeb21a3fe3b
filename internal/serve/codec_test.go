package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The codec's contract is differential: encoding/json over the plain
// structs is the reference, and these tests (with FuzzRowEncode and
// FuzzRowDecode below) hold the codec to it.

// Values that exercise every branch of the encoders.
var (
	genStrings = []string{
		"", "V100", "DLRM_default", "dlrm-uniform-2gpu", "acme", "high",
		`say "hi"`, `back\slash`, "<script>&amp;</script>", "tab\there", "line\nbreak\r", "bell\a\b\f\x00\x1f\x7f",
		"sep\u2028and\u2029", "café 世界 \U0001F600", "bad\xffutf8\xc3", "\xe2\x80", "a{b}[c],:d",
	}
	genFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 1234.5, 1e-7, -1e-7, 1e-6, 999999e-12, 1e20, 1e21, -1e21, 123456789012345678901234,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 98765.4321e-3,
	}
	genInts = []int64{0, 1, -1, 512, 4096, math.MaxInt64, math.MinInt64, math.MaxInt32, -1 << 31}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

// genRequest draws a request; about half of the omitempty fields of a
// draw are empty. plain keeps the strings escape-free.
func genRequest(rng *rand.Rand, plain bool) Request {
	str := func() string {
		if plain {
			return pick(rng, genStrings[:6])
		}
		return pick(rng, genStrings)
	}
	opt := func() bool { return rng.Intn(2) == 0 }
	var r Request
	r.Device = str()
	if opt() {
		r.Workload = str()
	}
	if opt() {
		r.Scenario = str()
	}
	if opt() {
		r.Batch = pick(rng, genInts)
	}
	if opt() {
		r.GPUs = int(pick(rng, genInts))
	}
	if opt() {
		r.Comm = str()
	}
	r.Shared = opt()
	if opt() {
		r.TimeoutMs = pick(rng, genInts)
	}
	if opt() {
		r.Tenant = str()
	}
	if opt() {
		r.Priority = str()
	}
	return r
}

func genResult(rng *rand.Rand, plain bool) Result {
	opt := func() bool { return rng.Intn(2) == 0 }
	r := Result{Request: genRequest(rng, plain)}
	for _, f := range []*float64{&r.E2EUs, &r.ActiveUs, &r.CPUUs, &r.ScalingEfficiency, &r.AllReduceUs, &r.AllToAllUs, &r.ShardImbalance} {
		if opt() {
			*f = pick(rng, genFloats)
		}
	}
	if opt() {
		r.GPUsUsed = int(pick(rng, genInts))
	}
	r.CacheHit = opt()
	if opt() {
		r.QueueWaitUs = pick(rng, genInts)
	}
	if opt() {
		if plain {
			r.Error = "deadline exceeded"
		} else {
			r.Error = pick(rng, genStrings)
		}
	}
	return r
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("reference json.Marshal(%+v): %v", v, err)
	}
	return data
}

// checkEncode holds every encoder to json.Marshal's bytes for one list
// of rows, and the fast path to accepting what the encoders emitted
// when no string needed an escape.
func checkEncode(t testing.TB, rows []Result, plain bool) {
	t.Helper()
	reqs := make([]Request, len(rows))
	for i := range rows {
		reqs[i] = rows[i].Request
		got, err := AppendResult(nil, &rows[i])
		if want := mustMarshal(t, rows[i]); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendResult(%+v)\n got %s / %v\nwant %s", rows[i], got, err, want)
		}
		if back, ok := parseResult(got); plain && (!ok || !reflect.DeepEqual(back, rows[i])) {
			t.Fatalf("fast path on its own encoder's %s = %+v / accepted %v, want %+v", got, back, ok, rows[i])
		}
		got = AppendRequest(nil, &reqs[i])
		if want := mustMarshal(t, reqs[i]); !bytes.Equal(got, want) {
			t.Fatalf("AppendRequest(%+v)\n got %s\nwant %s", reqs[i], got, want)
		}
		if back, ok := parseRequest(got); plain && (!ok || back != reqs[i]) {
			t.Fatalf("fast path on its own encoder's %s = %+v / accepted %v, want %+v", got, back, ok, reqs[i])
		}
	}
	got, err := Rows(rows).MarshalJSON()
	if want := mustMarshal(t, rows); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Rows.MarshalJSON\n got %s / %v\nwant %s", got, err, want)
	}
	if back, ok := parseRows(got); plain && rows != nil && (!ok || !reflect.DeepEqual([]Result(back), rows)) {
		t.Fatalf("fast path declined or misread its own encoder's row list %s", got)
	}
	// Through encoding/json, as a Report carries them.
	if got, want := mustMarshal(t, Rows(rows)), mustMarshal(t, rows); !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal(Rows)\n got %s\nwant %s", got, want)
	}
	got = AppendRequests(nil, reqs)
	if want := mustMarshal(t, reqs); !bytes.Equal(got, want) {
		t.Fatalf("AppendRequests\n got %s\nwant %s", got, want)
	}
	if back, ok := parseRequests(got); plain && (!ok || !reflect.DeepEqual(back, reqs)) {
		t.Fatalf("fast path declined or misread its own encoder's request list %s", got)
	}
}

// TestCodecEncodeMatchesJSON: generated rows — strings with quotes,
// backslashes, <>&, control bytes, U+2028 and invalid UTF-8; floats 0,
// -0, 1e-7, 1e21, subnormals and MaxFloat64; ints at both limits; every
// omitempty field empty and set — encode byte for byte as json.Marshal
// encodes the plain structs, and escape-free rows never leave the fast
// path on the way back.
func TestCodecEncodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, plain := range []bool{false, true} {
		for n := 0; n < 2000; n++ {
			rows := make([]Result, rng.Intn(4))
			for i := range rows {
				rows[i] = genResult(rng, plain)
			}
			checkEncode(t, rows, plain)
		}
	}
	// Each special value in each position, alone.
	for _, s := range genStrings {
		for _, f := range genFloats {
			for _, n := range genInts {
				checkEncode(t, []Result{{
					Request: Request{Workload: s, Scenario: s, Batch: n, Device: s, GPUs: int(n), Comm: s, TimeoutMs: n, Tenant: s, Priority: s},
					E2EUs:   f, ActiveUs: f, CPUUs: f, GPUsUsed: int(n), ScalingEfficiency: f, AllReduceUs: f, AllToAllUs: f, ShardImbalance: f,
					QueueWaitUs: n, Error: s,
				}}, false)
			}
		}
	}
	checkEncode(t, nil, true) // a nil list is null, as encoding/json has it
	for _, e := range []HTTPError{{}, {Code: "bad_request", Message: `invalid character '<' after "x"` + "\n"}} {
		if got, want := appendHTTPError(nil, &e), mustMarshal(t, e); !bytes.Equal(got, want) {
			t.Fatalf("appendHTTPError\n got %s\nwant %s", got, want)
		}
	}
}

// checkDecode holds the four decoders to json.Unmarshal on one input:
// what the fast path accepts, json.Unmarshal accepts with an equal
// value; what it declines, the public function answers exactly as
// json.Unmarshal does, value and error.
func checkDecode(t testing.TB, data []byte) {
	t.Helper()
	sameErr := func(got, want error) bool {
		return (got == nil) == (want == nil) && (got == nil || got.Error() == want.Error())
	}

	var wantReq Request
	wantErr := json.Unmarshal(data, &wantReq)
	if fast, ok := parseRequest(data); ok && (wantErr != nil || fast != wantReq) {
		t.Fatalf("request fast path accepted %q as %+v; json.Unmarshal: %+v / %v", data, fast, wantReq, wantErr)
	}
	if got, err := UnmarshalRequest(data); got != wantReq || !sameErr(err, wantErr) {
		t.Fatalf("UnmarshalRequest(%q) = %+v / %v; json.Unmarshal: %+v / %v", data, got, err, wantReq, wantErr)
	}

	var wantRow Result
	wantErr = json.Unmarshal(data, &wantRow)
	if fast, ok := parseResult(data); ok && (wantErr != nil || !reflect.DeepEqual(fast, wantRow)) {
		t.Fatalf("result fast path accepted %q as %+v; json.Unmarshal: %+v / %v", data, fast, wantRow, wantErr)
	}
	if got, err := UnmarshalResult(data); !reflect.DeepEqual(got, wantRow) || !sameErr(err, wantErr) {
		t.Fatalf("UnmarshalResult(%q) = %+v / %v; json.Unmarshal: %+v / %v", data, got, err, wantRow, wantErr)
	}

	var wantReqs []Request
	wantErr = json.Unmarshal(data, &wantReqs)
	if fast, ok := parseRequests(data); ok && (wantErr != nil || !reflect.DeepEqual(fast, wantReqs)) {
		t.Fatalf("request-list fast path accepted %q as %+v; json.Unmarshal: %+v / %v", data, fast, wantReqs, wantErr)
	}
	if got, err := UnmarshalRequests(data); !reflect.DeepEqual(got, wantReqs) || !sameErr(err, wantErr) {
		t.Fatalf("UnmarshalRequests(%q) = %+v / %v; json.Unmarshal: %+v / %v", data, got, err, wantReqs, wantErr)
	}

	var wantRows []Result
	wantErr = json.Unmarshal(data, &wantRows)
	if fast, ok := parseRows(data); ok && (wantErr != nil || !reflect.DeepEqual([]Result(fast), wantRows)) {
		t.Fatalf("row-list fast path accepted %q as %+v; json.Unmarshal: %+v / %v", data, fast, wantRows, wantErr)
	}
	var got Rows
	if err := got.UnmarshalJSON(data); !reflect.DeepEqual([]Result(got), wantRows) || !sameErr(err, wantErr) {
		t.Fatalf("Rows.UnmarshalJSON(%q) = %+v / %v; json.Unmarshal: %+v / %v", data, got, err, wantRows, wantErr)
	}
}

// decodeCases are the inputs the parser's strictness is about. The fuzz
// corpus under testdata/fuzz/FuzzRowDecode holds the same classes.
var decodeCases = []string{
	`{"device":"V100","workload":"DLRM_default","batch":512}`,
	` { "device" : "V100" , "gpus" : 2 , "shared" : true }` + "\n",
	"\t[\r\n{\"device\":\"V100\"} , {\"device\":\"P100\",\"tenant\":\"acme\"}\n]\n",
	`{}`, `[]`, `[{}]`, ` [ ] `, `null`, `[null]`, `true`, `0`, `""`, ``, ` `,
	`{"device":"V100","workload":"DLRM_default","batch":512}{"device":"P100"} garbage`,
	`{"device":"V100"} x`, `[{"device":"V100"}]]`, `{"device":"V100"},`, `[{"device":"V100"},]`, `[,]`, `{,}`,
	`{"device":"V100"`, `{"device":"V1`, `{"device":`, `{"device"`, `{"dev`, `{`, `[`, `[{"device":"V100"}`, `[{"device":"V100"},`,
	`{"device":"A","device":"B"}`, `{"batch":1,"batch":2}`, `{"e2e_us":1,"e2e_us":2}`,
	`{"Device":"V100"}`, `{"DEVICE":"V100","device":"P100"}`, `{"device":"P100","Device":"V100"}`, `{"E2E_US":3}`,
	`{"batch":1e3}`, `{"batch":1.0}`, `{"batch":1.5}`, `{"gpus":1E2}`, `{"gpus_used":2.0}`, `{"queue_wait_us":1e2}`,
	`{"batch":-0}`, `{"batch":01}`, `{"batch":-}`, `{"batch":+1}`, `{"batch":0x10}`, `{"batch":1_000}`, `{"batch":.5}`, `{"batch":5.}`,
	`{"batch":9223372036854775807}`, `{"batch":9223372036854775808}`, `{"batch":-9223372036854775808}`, `{"batch":-9223372036854775809}`,
	`{"batch":123456789012345678901234567890123456789012345678901234567890}`, `{"gpus":99999999999999999999}`,
	`{"e2e_us":1e999}`, `{"e2e_us":-1e999}`, `{"e2e_us":1e-999}`, `{"e2e_us":0.0000000000000000000000000000000000000000001e50}`,
	`{"e2e_us":1.5e+3,"active_us":-0.0,"cpu_us":0e0,"scaling_efficiency":1E-2}`, `{"e2e_us":1.}`, `{"e2e_us":.1}`, `{"e2e_us":1e}`, `{"e2e_us":1e+}`, `{"e2e_us":--1}`,
	`{"e2e_us":NaN}`, `{"e2e_us":Infinity}`, `{"e2e_us":"1"}`, `{"e2e_us":0x1p-2}`,
	`{"device":null}`, `{"batch":null}`, `{"shared":null}`, `{"e2e_us":null,"error":null}`, `{"device":"V100","comm":null}`,
	`{"shared":true}`, `{"shared":false}`, `{"shared":True}`, `{"shared":truex}`, `{"shared":tru}`, `{"shared":1}`, `{"shared":"true"}`, `{"cache_hit":true}`, `{"cache_hit":falsey}`,
	`{"device":"a\"b"}`, `{"device":"a\\b"}`, `{"device":"\u0041"}`, `{"device":"a\nb"}`, `{"device":"😀"}`, `{"device":"\ud83d"}`, `{"device":"\x"}`, `{"device":"V100"}`,
	"{\"device\":\"a\nb\"}", "{\"device\":\"a\x00b\"}", "{\"device\":\"a\x7fb\"}",
	"{\"device\":\"café 世界\"}", "{\"device\":\"bad\xff\"}", "{\"device\":\"\xe2\x80\"}", "{\"device\":\"sep\u2028\"}", "{\"café\":1}", "{\"\xff\":1}",
	`{"device":"V100","unknown":1}`, `{"unknown":{"a":[1,2,{"b":null}]},"device":"V100"}`, `{"device":{"nested":true}}`, `{"device":["V100"]}`, `{"device":5}`, `{"batch":"512"}`,
	`{"":1}`, `{"device":""}`, `{1:2}`, `{device:"V100"}`, `{'device':'V100'}`, `{"device" "V100"}`, `{"device":"V100" "batch":1}`, `{"device":"V100";"batch":1}`,
	`{"error":"x","e2e_us":12.5,"cache_hit":true,"queue_wait_us":7,"gpus_used":2}`,
	`[[{"device":"V100"}]]`, `[{"device":"V100"},[]]`, `[1,2,3]`, `["a"]`, `{"results":[]}`,
	"\ufeff{}", "{}\x00", "\x00", "\v{}", "{}\f",
}

// TestCodecDecodeDifferential runs the strictness table, and every
// generated row in both its canonical and its indented form, through
// the differential check.
func TestCodecDecodeDifferential(t *testing.T) {
	for _, c := range decodeCases {
		checkDecode(t, []byte(c))
	}
	checkDecode(t, []byte("["+strings.Repeat("0,", 4095)+"0]")) // 4096 one-byte rows
	checkDecode(t, []byte("["+strings.Repeat("{},", 4095)+"{}]"))
	checkDecode(t, []byte(strings.Repeat("[", 5000)))
	checkDecode(t, []byte(strings.Repeat("{", 5000)))
	checkDecode(t, []byte(`{"batch":`+strings.Repeat("9", 400)+`}`))
	checkDecode(t, []byte(`{"e2e_us":`+strings.Repeat("9", 400)+`}`))

	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 1000; n++ {
		rows := []Result{genResult(rng, n%2 == 0), genResult(rng, n%2 == 0)}
		for _, v := range []any{rows[0], rows[0].Request, rows, []Request{rows[0].Request, rows[1].Request}} {
			checkDecode(t, mustMarshal(t, v))
			indented, _ := json.MarshalIndent(v, "", "  ")
			checkDecode(t, indented)
		}
	}
}

// genReport draws a report around n generated rows; plain keeps every
// string escape-free.
func genReport(rng *rand.Rand, n int, plain bool) Report {
	var rep Report
	if n >= 0 {
		rep.Results = make(Rows, n)
		for i := range rep.Results {
			rep.Results[i] = genResult(rng, plain)
		}
	}
	rep.Requests, rep.Failed = int(pick(rng, genInts)), rng.Intn(n+2)
	rep.ElapsedMs = pick(rng, genFloats)
	if rng.Intn(2) == 0 {
		rep.Error = &ReportError{Code: "all_requests_failed", Message: "all 2 requests failed; first error: deadline exceeded"}
		if !plain {
			rep.Error.Code, rep.Error.Message = pick(rng, genStrings), pick(rng, genStrings)
		}
	}
	return rep
}

// checkReportEncode holds AppendReport to json.Marshal's bytes for one
// report, and the fast path to accepting what it emitted when no string
// needed an escape.
func checkReportEncode(t testing.TB, rep Report, plain bool) {
	t.Helper()
	got, err := AppendReport(nil, &rep)
	if want := mustMarshal(t, rep); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("AppendReport(%+v)\n got %s / %v\nwant %s", rep, got, err, want)
	}
	if back, ok := parseReport(got); plain && (!ok || !reflect.DeepEqual(back, rep)) {
		t.Fatalf("fast path on its own encoder's %s = %+v / accepted %v, want %+v", got, back, ok, rep)
	}
}

// TestReportEncodeMatchesJSON: reports with nil, empty and 64-row
// results, with no error and with one in HTML-sensitive and non-ASCII
// text, and with every special elapsed time encode byte for byte as
// json.Marshal encodes them; a NaN or infinite elapsed time is refused
// as json.Marshal refuses it.
func TestReportEncodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, plain := range []bool{false, true} {
		for _, n := range []int{-1, 0, 1, 3, 64} {
			for i := 0; i < 50; i++ {
				checkReportEncode(t, genReport(rng, n, plain), plain)
			}
		}
	}
	for _, elapsed := range []float64{0, math.Copysign(0, -1), 1e-7, 1e21, -3.25, 12.5} {
		for _, e := range []*ReportError{nil, {}, {Code: "<all>&", Message: "café 世界 \U0001F600 \u2028"}} {
			for _, rows := range []Rows{nil, {}, {{Request: Request{Device: "V100"}, E2EUs: 1}}} {
				checkReportEncode(t, Report{Results: rows, Requests: len(rows), ElapsedMs: elapsed, Error: e}, false)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendReport(nil, &Report{ElapsedMs: bad}); !errors.Is(err, ErrUnsupportedValue) {
			t.Fatalf("AppendReport with elapsed_ms=%v: err = %v, want ErrUnsupportedValue", bad, err)
		}
		if _, err := json.Marshal(Report{ElapsedMs: bad}); err == nil {
			t.Fatalf("json.Marshal accepted elapsed_ms=%v", bad)
		}
	}
}

// checkReportDecode holds UnmarshalReport to json.Unmarshal on one
// input, as checkDecode does the row decoders.
func checkReportDecode(t testing.TB, data []byte) {
	t.Helper()
	var want Report
	wantErr := json.Unmarshal(data, &want)
	if fast, ok := parseReport(data); ok && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("report fast path accepted %q as %+v; json.Unmarshal: %+v / %v", data, fast, want, wantErr)
	}
	got, err := UnmarshalReport(data)
	if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("UnmarshalReport(%q) = %+v / %v; json.Unmarshal: %+v / %v", data, got, err, want, wantErr)
	}
}

// reportCases are the report envelope's own strictness inputs; the row
// table above runs through the report decoder too. The fuzz corpus
// under testdata/fuzz/FuzzReportDecode holds the same classes.
var reportCases = []string{
	`{"results":[{"device":"V100","e2e_us":1.5}],"requests":1,"failed":0,"elapsed_ms":0.25}`,
	`{"results":null,"requests":0,"failed":0,"elapsed_ms":0}`,
	`{"results":[],"requests":0,"failed":0,"elapsed_ms":0,"error":null}`,
	`{"results":[{"device":"V100","error":"boom"}],"requests":1,"failed":1,"elapsed_ms":3,"error":{"code":"all_requests_failed","message":"all 1 requests failed"}}`,
	` { "results" : [ { "device" : "V100" } , {} ] , "requests" : 2 ,` + "\n\t" + `"failed" : 0 , "elapsed_ms" : 1e-7 }` + "\r\n",
	`{"error":{},"requests":1}`, `{"error":{"code":"a"}}`, `{"error":{"message":"m","code":"c"}}`,
	`{"error":{"code":"a","message":"m"},"error":{"code":"b"}}`, `{"error":{"code":"a"},"error":null}`, `{"error":null,"error":{"message":"m"}}`,
	`{"error":{"code":null}}`, `{"error":{"code":"a","extra":1}}`, `{"error":"all_requests_failed"}`, `{"error":[]}`, `{"error":{"code":"a"}`, `{"error":{"code":"a",}}`, `{"error":{"Code":"a"}}`, `{"error":{"code":"\u0041"}}`,
	`{"results":[{"device":"A"}],"results":[{"device":"B"},{}]}`, `{"results":[{}],"results":null}`, `{"requests":1,"requests":2}`, `{"elapsed_ms":1,"elapsed_ms":-2.5}`,
	`{"results":[],"unknown":1}`, `{"unknown":{"results":[]},"requests":3}`, `{"Results":[{"device":"V100"}]}`, `{"REQUESTS":4}`, `{"elapsed_MS":1}`,
	`{"results":[null]}`, `{"results":[1]}`, `{"results":{}}`, `{"results":"x"}`, `{"results":nul}`, `{"results":nullx}`, `{"results":[{"device":"V100","bogus":1}]}`,
	`{"requests":null}`, `{"failed":null}`, `{"elapsed_ms":null}`, `{"requests":1.5}`, `{"requests":1e2}`, `{"failed":-1}`, `{"requests":99999999999999999999}`, `{"requests":"1"}`,
	`{"elapsed_ms":1e999}`, `{"elapsed_ms":-0}`, `{"elapsed_ms":NaN}`, `{"elapsed_ms":"1"}`, `{"elapsed_ms":.5}`,
	`{"results":[],"requests":0,"failed":0,"elapsed_ms":0} x`, `{"results":[]}{"requests":1}`, `{"results":[]},`, `{"results":[]`, `{"results":[`, `{"results"`, `{"results":[{"device":"V100"}]]}`,
	`{"results":[{"device":"say \"hi\""}],"requests":1}`, `{"error":{"code":"a","message":"<b>\u0026"}}`,
	`{}`, `[]`, `null`, `{,}`, `{"requests":1,}`,
}

// TestReportDecodeDifferential runs the row strictness table, the
// report cases and generated reports (canonical and indented) through
// the report decoder.
func TestReportDecodeDifferential(t *testing.T) {
	for _, c := range append(append([]string(nil), decodeCases...), reportCases...) {
		checkReportDecode(t, []byte(c))
	}
	for _, c := range reportCases[:11] { // null results and error, whitespace, repeated error objects
		if _, ok := parseReport([]byte(c)); !ok {
			t.Fatalf("report fast path declined %s", c)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for n := 0; n < 300; n++ {
		rep := genReport(rng, n%5-1, n%2 == 0)
		checkReportDecode(t, mustMarshal(t, rep))
		indented, _ := json.MarshalIndent(rep, "", "  ")
		checkReportDecode(t, indented)
	}
}

// TestRowsInsideReport: the rows of a report survive the trip through
// encoding/json in both directions, compact and indented (the CLIs'
// file reports call MarshalIndent themselves).
func TestRowsInsideReport(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rep := Report{Results: Rows{genResult(rng, true), genResult(rng, false)}, Requests: 2}
	want := mustMarshal(t, []Result(rep.Results))
	for _, marshal := range []func(any) ([]byte, error){json.Marshal, func(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }} {
		data, err := marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var back Report
		if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back.Results, rep.Results) {
			t.Fatalf("report round trip: %v\n got %+v\nwant %+v", err, back.Results, rep.Results)
		}
		var doc struct {
			Results json.RawMessage `json:"results"`
		}
		var got bytes.Buffer
		if err := json.Unmarshal(data, &doc); err != nil || json.Compact(&got, doc.Results) != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("rows inside the report\n got %s\nwant %s", got.Bytes(), want)
		}
	}
}

// TestWriteJSONUnencodableRow: a row that cannot be encoded used to
// answer the status it came with and an empty body, because the status
// was written before the encoder ran. Every float field, NaN and both
// infinities, alone and inside a report: 500 with the internal envelope.
func TestWriteJSONUnencodableRow(t *testing.T) {
	fields := map[string]func(*Result) *float64{
		"e2e_us":             func(r *Result) *float64 { return &r.E2EUs },
		"active_us":          func(r *Result) *float64 { return &r.ActiveUs },
		"cpu_us":             func(r *Result) *float64 { return &r.CPUUs },
		"scaling_efficiency": func(r *Result) *float64 { return &r.ScalingEfficiency },
		"allreduce_us":       func(r *Result) *float64 { return &r.AllReduceUs },
		"alltoall_us":        func(r *Result) *float64 { return &r.AllToAllUs },
		"shard_imbalance":    func(r *Result) *float64 { return &r.ShardImbalance },
	}
	for name, field := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			row := Result{Request: Request{Device: "V100"}, E2EUs: 1}
			*field(&row) = bad
			if _, err := AppendResult(nil, &row); !errors.Is(err, ErrUnsupportedValue) {
				t.Fatalf("AppendResult with %s=%v: err = %v, want ErrUnsupportedValue", name, bad, err)
			}
			writes := map[string]func(http.ResponseWriter){
				"WriteJSON row":    func(w http.ResponseWriter) { WriteJSON(w, http.StatusOK, row) },
				"WriteResult":      func(w http.ResponseWriter) { WriteResult(w, &row) },
				"WriteJSON report": func(w http.ResponseWriter) { WriteJSON(w, http.StatusOK, &Report{Results: Rows{{}, row}}) },
			}
			for how, write := range writes {
				rec := httptest.NewRecorder()
				write(rec)
				var he HTTPError
				if err := json.Unmarshal(rec.Body.Bytes(), &he); rec.Code != http.StatusInternalServerError || err != nil || he.Code != "internal" || he.Message == "" {
					t.Fatalf("%s with %s=%v: status %d body %q, want 500 with the internal envelope", how, name, bad, rec.Code, rec.Body)
				}
			}
		}
	}
}

// TestWriteJSONIsCompact: one line, struct order, no indentation — for a
// row through the codec and for a document through encoding/json alike.
func TestWriteJSONIsCompact(t *testing.T) {
	row := Result{Request: Request{Workload: "w", Device: "V100"}, E2EUs: 42, CacheHit: true}
	for _, v := range []any{row, HTTPError{Code: "queue_full", Message: "busy"}, map[string]any{"status": "ok"}, &Report{Results: Rows{row}}} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		want := append(mustMarshal(t, v), '\n')
		if !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("WriteJSON(%T)\n got %q\nwant %q", v, rec.Body, want)
		}
	}
}

// TestBufferReadBounded: a body is read whole up to the cap, one byte
// more is reported, and a sender's Content-Length sizes the buffer only
// as far as a pooled buffer goes.
func TestBufferReadBounded(t *testing.T) {
	for _, tc := range []struct {
		body     int
		limit    int64
		hint     int64
		tooLarge bool
	}{
		{body: 0, limit: 8, hint: 0},
		{body: 8, limit: 8, hint: 8},
		{body: 9, limit: 8, hint: 9, tooLarge: true},
		{body: 4096, limit: 8, hint: -1, tooLarge: true},
		{body: 100, limit: 1 << 40, hint: 1 << 39}, // a lying Content-Length reserves no more than a pooled buffer
		{body: 3 * maxPooledBuffer, limit: 1 << 30, hint: 3 * maxPooledBuffer},
	} {
		buf := GetBuffer()
		tooLarge, err := buf.ReadBounded(strings.NewReader(strings.Repeat("x", tc.body)), tc.limit, tc.hint)
		if err != nil || tooLarge != tc.tooLarge {
			t.Fatalf("%+v: tooLarge = %v / %v", tc, tooLarge, err)
		}
		if want := min(int64(tc.body), tc.limit+1); int64(buf.Len()) != want {
			t.Fatalf("%+v: read %d bytes, want %d", tc, buf.Len(), want)
		}
		if tc.body <= maxPooledBuffer && buf.Cap() > 2*maxPooledBuffer {
			t.Fatalf("%+v: a %d-byte body reserved %d bytes", tc, tc.body, buf.Cap())
		}
		buf.Release()
	}
}

// FuzzRowDecode is the differential decode contract over arbitrary
// bytes: one target for the four decoders, so for the worker's and the
// coordinator's predict and batch bodies and the client's responses.
func FuzzRowDecode(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

// FuzzReportDecode is the differential decode contract of the report
// envelope over arbitrary bytes: the batch response a client and a
// coordinator read from every worker and coordinator they call.
func FuzzReportDecode(f *testing.F) {
	for _, c := range reportCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkReportDecode(t, data) })
}

// FuzzRowEncode is the differential encode contract over arbitrary
// field values, with the round trip back through the decoders.
func FuzzRowEncode(f *testing.F) {
	f.Add("DLRM_default", "", "V100", "nvlink", "acme", "high", "", int64(512), int64(2), int64(0), true, false, 1234.5, 1000.25, 0.93, 1e-7)
	f.Add("a\"b", "<&>", "\xff", " ", "\x00", "\\", "deadline exceeded", int64(math.MinInt64), int64(math.MaxInt64), int64(-1), false, true, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21, math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, workload, scenario, device, comm, tenant, priority, errText string, batch, gpus, wait int64, shared, hit bool, e2e, active, eff, comms float64) {
		row := Result{
			Request: Request{Workload: workload, Scenario: scenario, Batch: batch, Device: device, GPUs: int(gpus), Comm: comm, Shared: shared, TimeoutMs: wait, Tenant: tenant, Priority: priority},
			E2EUs:   e2e, ActiveUs: active, CPUUs: comms, GPUsUsed: int(gpus), ScalingEfficiency: eff, AllReduceUs: comms, AllToAllUs: active, ShardImbalance: eff,
			CacheHit: hit, QueueWaitUs: wait, Error: errText,
		}
		want, err := json.Marshal(row)
		if err != nil { // NaN or Inf: both refuse
			if _, err := AppendResult(nil, &row); !errors.Is(err, ErrUnsupportedValue) {
				t.Fatalf("json.Marshal refused %+v, AppendResult: %v", row, err)
			}
			return
		}
		checkEncode(t, []Result{row, {}, row}, false)
		// Whatever was encoded decodes to what encoding/json decodes it to.
		checkDecode(t, want)
	})
}

// BenchmarkRowCodec is the codec's cost on the row a resident hit
// carries, and on a 64-row batch report of such rows, gated by
// benchdiff: encoding a Result, a Request or a report allocates
// nothing; parsing a row and a request allocates their string fields
// (workload and device, twice) and nothing else, and parsing the
// report its row list and the rows' strings.
func BenchmarkRowCodec(b *testing.B) {
	row := Result{
		Request: Request{Workload: "DLRM_default", Batch: 512, Device: "V100"},
		E2EUs:   10234.567891234567, ActiveUs: 9876.54321987654, CPUUs: 8765.432198765432,
		GPUsUsed: 1, ScalingEfficiency: 1, CacheHit: true,
	}
	rowJSON, _ := AppendResult(nil, &row)
	reqJSON := AppendRequest(nil, &row.Request)
	rows := make([]Result, 64)
	for i := range rows {
		rows[i] = row
	}
	rep := NewReport(rows, 4321*time.Microsecond)
	repJSON, _ := AppendReport(nil, rep)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 512)
		for i := 0; i < b.N; i++ {
			buf, _ = AppendResult(buf[:0], &row)
			buf = AppendRequest(buf[:0], &row.Request)
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := UnmarshalResult(rowJSON)
			req, err2 := UnmarshalRequest(reqJSON)
			if err != nil || err2 != nil || got.E2EUs != row.E2EUs || req != row.Request {
				b.Fatalf("parse: %+v / %v, %+v / %v", got, err, req, err2)
			}
		}
	})
	b.Run("report/encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2*len(repJSON))
		for i := 0; i < b.N; i++ {
			buf, _ = AppendReport(buf[:0], rep)
		}
	})
	b.Run("report/parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := UnmarshalReport(repJSON)
			if err != nil || len(got.Results) != len(rows) || got.ElapsedMs != rep.ElapsedMs {
				b.Fatalf("parse: %d rows / %v", len(got.Results), err)
			}
		}
	})
}

// TestCodecCoversEveryField guards the field list the codec spells out
// by hand: a row, and a report holding it, with every field of the
// structs set (Request, Result, Report and ReportError, whatever fields
// they have by then) must still encode as json.Marshal encodes them and
// come back through the fast path. A field added to any of them and not
// to the codec fails here.
func TestCodecCoversEveryField(t *testing.T) {
	var row Result
	var rep Report
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Pointer:
				f.Set(reflect.New(f.Type().Elem()))
				fill(f.Elem())
			case reflect.Slice:
				if f.Type() != reflect.TypeOf(Rows(nil)) {
					t.Fatalf("field %s has type %s, which the codec has no case for", v.Type().Field(i).Name, f.Type())
				}
				f.Set(reflect.ValueOf(Rows{row, row}))
			case reflect.String:
				f.SetString("x")
			case reflect.Int, reflect.Int64:
				f.SetInt(7)
			case reflect.Float64:
				f.SetFloat(1.5)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("field %s has kind %s, which the codec has no case for", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&row).Elem())
	checkEncode(t, []Result{row}, true)
	fill(reflect.ValueOf(&rep).Elem())
	checkReportEncode(t, rep, true)
}
