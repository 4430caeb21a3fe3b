package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The row codec. Request and Result are the two flat structs that cross
// a socket on every prediction — client to coordinator, coordinator to
// worker, and back — and Report is the envelope a batch of them travels
// in, so all three are rendered and parsed here by hand, with no
// reflection, wherever that happens: WriteJSON/WriteResult,
// DecodeRequest/DecodeBatch, and internal/client.
// Every prediction row that crosses a socket, in either direction, on
// a worker, a coordinator or a client, goes through the exported
// encoders and parsers below, so each is a root of the hotpath
// analyzer (//lint:hotpath root).
//
// The contract is differential, against encoding/json, which stays the
// reference (codec_test.go and the three fuzz targets pin it):
//
//   - the encoders emit byte for byte what json.Marshal emits for the
//     plain structs: field order is struct order, omitempty as tagged,
//     HTML-escaped strings, json's float format;
//   - the parser is a strict fast path. It accepts one object (or one
//     array of objects) whose keys are the lower-case tag names, with
//     escape-free valid-UTF-8 strings, plain integers in the integer
//     fields, JSON numbers in the float fields and true/false in the
//     bool fields, JSON whitespace between tokens — and then yields
//     exactly what json.Unmarshal yields (of a repeated key the last
//     occurrence wins, there as here). Anything else (an escape, an
//     unknown or case-folded key, null outside a report's results and
//     error, 1e3 in an integer field, a syntax error, bytes after the
//     value) it declines, and the exported Unmarshal functions hand the
//     same bytes to json.Unmarshal, whose value or error is the answer.
//
// Which path runs is decided by the bytes alone; there is no switch.

// Rows is the row list of a batch report. It is a []Result whose JSON
// form goes through the codec even where encoding/json renders or
// parses the report around it: the CLIs' indented file reports, and
// the fallback for a report the fast path declined.
type Rows []Result

// ErrUnsupportedValue is the encoders' refusal of a row or a report
// holding a NaN or an infinite float, which JSON cannot carry
// (encoding/json refuses the same values with an UnsupportedValueError).
var ErrUnsupportedValue = errors.New("serve: a NaN or infinite float cannot be encoded as JSON")

// AppendRequest appends r as json.Marshal renders it.
//
//lint:hotpath root
func AppendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, '{')
	dst = appendRequestFields(dst, r)
	return append(dst, '}')
}

// AppendRequests appends the request list of a batch call.
//
//lint:hotpath root
func AppendRequests(dst []byte, reqs []Request) []byte {
	if reqs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range reqs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendRequest(dst, &reqs[i])
	}
	return append(dst, ']')
}

// AppendResult appends r as json.Marshal renders it: the embedded
// request's fields first, then the result's own.
//
//lint:hotpath root
func AppendResult(dst []byte, r *Result) ([]byte, error) {
	for _, f := range [...]float64{r.E2EUs, r.ActiveUs, r.CPUUs, r.ScalingEfficiency, r.AllReduceUs, r.AllToAllUs, r.ShardImbalance} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, ErrUnsupportedValue
		}
	}
	dst = append(dst, '{')
	dst = appendRequestFields(dst, &r.Request)
	dst = appendFloat(dst, `"e2e_us":`, r.E2EUs)
	dst = appendFloat(dst, `"active_us":`, r.ActiveUs)
	dst = appendFloat(dst, `"cpu_us":`, r.CPUUs)
	dst = appendInt(dst, `"gpus_used":`, int64(r.GPUsUsed))
	dst = appendFloat(dst, `"scaling_efficiency":`, r.ScalingEfficiency)
	dst = appendFloat(dst, `"allreduce_us":`, r.AllReduceUs)
	dst = appendFloat(dst, `"alltoall_us":`, r.AllToAllUs)
	dst = appendFloat(dst, `"shard_imbalance":`, r.ShardImbalance)
	dst = appendBool(dst, `"cache_hit":`, r.CacheHit)
	dst = appendInt(dst, `"queue_wait_us":`, r.QueueWaitUs)
	dst = appendStr(dst, `"error":`, r.Error)
	return append(dst, '}'), nil
}

// MarshalJSON renders the rows through AppendResult.
//
//lint:hotpath root
func (rs Rows) MarshalJSON() ([]byte, error) {
	return appendRows(make([]byte, 0, rowsSizeHint(len(rs))), rs)
}

// AppendReport appends rep as json.Marshal renders it: every field but
// error is written, zero or not.
//
//lint:hotpath root
func AppendReport(dst []byte, rep *Report) ([]byte, error) {
	if math.IsNaN(rep.ElapsedMs) || math.IsInf(rep.ElapsedMs, 0) {
		return dst, ErrUnsupportedValue
	}
	dst = append(dst, `{"results":`...)
	dst, err := appendRows(dst, rep.Results)
	if err != nil {
		return dst, err
	}
	dst = strconv.AppendInt(append(dst, `,"requests":`...), int64(rep.Requests), 10)
	dst = strconv.AppendInt(append(dst, `,"failed":`...), int64(rep.Failed), 10)
	dst = appendFloatValue(append(dst, `,"elapsed_ms":`...), rep.ElapsedMs)
	if rep.Error != nil {
		dst = appendHTTPError(append(dst, `,"error":`...), rep.Error)
	}
	return append(dst, '}'), nil
}

// rowsSizeHint is the encoded size of n typical rows, for sizing a
// buffer before they are appended.
func rowsSizeHint(n int) int { return 2 + 320*n }

func appendRows(dst []byte, rs Rows) ([]byte, error) {
	if rs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendResult(dst, &rs[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendHTTPError appends the error envelope of a non-200 response, and
// a report's error entry, which has the same two fields.
func appendHTTPError(dst []byte, e *HTTPError) []byte {
	dst = appendString(append(dst, `{"code":`...), e.Code)
	dst = appendString(append(dst, `,"message":`...), e.Message)
	return append(dst, '}')
}

func appendRequestFields(dst []byte, r *Request) []byte {
	dst = appendStr(dst, `"workload":`, r.Workload)
	dst = appendStr(dst, `"scenario":`, r.Scenario)
	dst = appendInt(dst, `"batch":`, r.Batch)
	dst = appendString(appendKey(dst, `"device":`), r.Device) // the one field without omitempty
	dst = appendInt(dst, `"gpus":`, int64(r.GPUs))
	dst = appendStr(dst, `"comm":`, r.Comm)
	dst = appendBool(dst, `"shared":`, r.Shared)
	dst = appendInt(dst, `"timeout_ms":`, r.TimeoutMs)
	dst = appendStr(dst, `"tenant":`, r.Tenant)
	return appendStr(dst, `"priority":`, r.Priority)
}

// appendKey appends key (spelled `"name":`), after a comma unless it
// opens the object: every value ends in a quote, a digit or a letter,
// so a trailing brace can only be the object's own.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendStr, appendInt, appendBool and appendFloat append one omitempty
// field.
func appendStr(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return appendString(appendKey(dst, key), v)
}

func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(appendKey(dst, key), v, 10)
}

func appendBool(dst []byte, key string, v bool) []byte {
	if !v {
		return dst
	}
	return append(appendKey(dst, key), "true"...)
}

func appendFloat(dst []byte, key string, f float64) []byte {
	if f == 0 {
		return dst
	}
	return appendFloatValue(appendKey(dst, key), f)
}

// appendFloatValue writes encoding/json's float64 form: the shortest
// digits that round-trip, %f unless the exponent is below -6 or at
// least 21, and a two-digit negative exponent trimmed to one
// (1e-07 -> 1e-7).
func appendFloatValue(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString writes s quoted and escaped as json.Marshal escapes it:
// quote, backslash, control bytes, the HTML-sensitive <, > and &,
// U+2028/U+2029, and U+FFFD for each byte of invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// UnmarshalRequest parses one request: the fast path if it accepts,
// else json.Unmarshal.
//
//lint:hotpath root
func UnmarshalRequest(data []byte) (Request, error) {
	if r, ok := parseRequest(data); ok {
		return r, nil
	}
	return unmarshalSlow[Request](data)
}

// UnmarshalResult parses one result row.
//
//lint:hotpath root
func UnmarshalResult(data []byte) (Result, error) {
	if r, ok := parseResult(data); ok {
		return r, nil
	}
	return unmarshalSlow[Result](data)
}

// UnmarshalRequests parses the request list of a batch call.
//
//lint:hotpath root
func UnmarshalRequests(data []byte) ([]Request, error) {
	if reqs, ok := parseRequests(data); ok {
		return reqs, nil
	}
	return unmarshalSlow[[]Request](data)
}

// UnmarshalJSON replaces the rows with the parsed list.
//
//lint:hotpath root
func (rs *Rows) UnmarshalJSON(data []byte) error {
	rows, ok := parseRows(data)
	if ok {
		*rs = rows
		return nil
	}
	plain, err := unmarshalSlow[[]Result](data)
	*rs = plain
	return err
}

// UnmarshalReport parses a batch report. The report is built afresh:
// nothing of a value the caller held before survives, whichever path
// parsed it.
//
//lint:hotpath root
func UnmarshalReport(data []byte) (Report, error) {
	if rep, ok := parseReport(data); ok {
		return rep, nil
	}
	return unmarshalSlow[Report](data)
}

// The five fast paths: ok is false when the input is declined.

func parseRequest(data []byte) (r Request, ok bool) {
	s := scanner{data: data}
	s.space()
	ok = s.object(&r, nil) && s.end()
	return r, ok
}

func parseResult(data []byte) (r Result, ok bool) {
	s := scanner{data: data}
	s.space()
	ok = s.object(&r.Request, &r) && s.end()
	return r, ok
}

func parseRequests(data []byte) (reqs []Request, ok bool) {
	reqs = make([]Request, 0, rowsHint(data))
	s := scanner{data: data}
	s.space()
	ok = s.list(&reqs, nil) && s.end()
	return reqs, ok
}

func parseRows(data []byte) (rows Rows, ok bool) {
	rows = make(Rows, 0, rowsHint(data))
	s := scanner{data: data}
	s.space()
	ok = s.list(nil, &rows) && s.end()
	return rows, ok
}

func parseReport(data []byte) (rep Report, ok bool) {
	s := scanner{data: data}
	s.space()
	ok = s.report(&rep) && s.end()
	return rep, ok
}

// unmarshalSlow is the accepting reference behind the fast path.
func unmarshalSlow[T any](data []byte) (T, error) {
	v := new(T)
	err := json.Unmarshal(data, v) //lint:allow hotpath the fallback for input the fast path declined; nothing the encoders above emit for escape-free strings reaches it
	return *v, err
}

// rowsHint sizes a row list before it is parsed: canonical input has
// one opening brace per row. The cap bounds what a body of nothing but
// braces can make the parser allocate up front.
func rowsHint(data []byte) int {
	return min(bytes.Count(data, []byte{'{'}), 4096)
}

// scanner is the fast path's cursor. Every method that reports false
// has declined the input; the caller discards whatever was parsed.
type scanner struct {
	data []byte
	i    int
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.data)
}

func (s *scanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) eat(c byte) bool {
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// list parses an array of row objects, appending to reqs — or, for
// result rows, to rows.
func (s *scanner) list(reqs *[]Request, rows *Rows) bool {
	if !s.eat('[') {
		return false
	}
	if s.space(); s.eat(']') {
		return true
	}
	for {
		var ok bool
		if rows != nil {
			*rows = append(*rows, Result{})
			row := &(*rows)[len(*rows)-1]
			ok = s.object(&row.Request, row)
		} else {
			*reqs = append(*reqs, Request{})
			ok = s.object(&(*reqs)[len(*reqs)-1], nil)
		}
		if !ok {
			return false
		}
		if s.space(); !s.eat(',') {
			return s.eat(']')
		}
		s.space()
	}
}

// fields parses an object, handing each key to field with the cursor
// on its value; field parses the value, or reports false to decline.
func (s *scanner) fields(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.space(); s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok {
			return false
		}
		if s.space(); !s.eat(':') {
			return false
		}
		if s.space(); !field(key) {
			return false
		}
		if s.space(); !s.eat(',') {
			return s.eat('}')
		}
		s.space()
	}
}

// object parses one row object into req and, for a result row, res;
// with res nil the result's keys are unknown keys. A repeated key
// overwrites, which is encoding/json's answer too: the last one wins.
func (s *scanner) object(req *Request, res *Result) bool {
	return s.fields(func(key []byte) bool {
		switch string(key) {
		case "workload":
			return s.strInto(&req.Workload)
		case "scenario":
			return s.strInto(&req.Scenario)
		case "batch":
			return s.intInto(&req.Batch)
		case "device":
			return s.strInto(&req.Device)
		case "gpus":
			return s.nativeIntInto(&req.GPUs)
		case "comm":
			return s.strInto(&req.Comm)
		case "shared":
			return s.boolInto(&req.Shared)
		case "timeout_ms":
			return s.intInto(&req.TimeoutMs)
		case "tenant":
			return s.strInto(&req.Tenant)
		case "priority":
			return s.strInto(&req.Priority)
		}
		if res == nil {
			return false
		}
		switch string(key) {
		case "e2e_us":
			return s.floatInto(&res.E2EUs)
		case "active_us":
			return s.floatInto(&res.ActiveUs)
		case "cpu_us":
			return s.floatInto(&res.CPUUs)
		case "gpus_used":
			return s.nativeIntInto(&res.GPUsUsed)
		case "scaling_efficiency":
			return s.floatInto(&res.ScalingEfficiency)
		case "allreduce_us":
			return s.floatInto(&res.AllReduceUs)
		case "alltoall_us":
			return s.floatInto(&res.AllToAllUs)
		case "shard_imbalance":
			return s.floatInto(&res.ShardImbalance)
		case "cache_hit":
			return s.boolInto(&res.CacheHit)
		case "queue_wait_us":
			return s.intInto(&res.QueueWaitUs)
		case "error":
			return s.strInto(&res.Error)
		}
		return false
	})
}

// report parses a report object. Its results and its error may be null,
// which leaves them nil as encoding/json leaves them. A repeated error
// object is merged into the first, field by field, as encoding/json
// decodes into the pointer it already holds.
func (s *scanner) report(rep *Report) bool {
	return s.fields(func(key []byte) bool {
		switch string(key) {
		case "results":
			if rep.Results = nil; s.null() {
				return true
			}
			rep.Results = make(Rows, 0, rowsHint(s.data[s.i:]))
			return s.list(nil, &rep.Results)
		case "requests":
			return s.nativeIntInto(&rep.Requests)
		case "failed":
			return s.nativeIntInto(&rep.Failed)
		case "elapsed_ms":
			return s.floatInto(&rep.ElapsedMs)
		case "error":
			if s.null() {
				rep.Error = nil
				return true
			}
			if rep.Error == nil {
				rep.Error = new(ReportError)
			}
			e := rep.Error
			return s.fields(func(key []byte) bool {
				switch string(key) {
				case "code":
					return s.strInto(&e.Code)
				case "message":
					return s.strInto(&e.Message)
				}
				return false
			})
		}
		return false
	})
}

// null consumes a null literal.
func (s *scanner) null() bool {
	if bytes.HasPrefix(s.data[s.i:], []byte("null")) {
		s.i += 4
		return true
	}
	return false
}

// str scans a string literal with nothing to unescape or repair: no
// backslash, no control byte, valid UTF-8. It returns the bytes between
// the quotes.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.data); s.i++ {
		switch b := s.data[s.i]; {
		case b == '"':
			lit := s.data[start:s.i]
			s.i++
			return lit, ascii || utf8.Valid(lit)
		case b == '\\' || b < ' ':
			return nil, false
		case b >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (s *scanner) strInto(dst *string) bool {
	lit, ok := s.str()
	if ok {
		*dst = string(lit)
	}
	return ok
}

func (s *scanner) boolInto(dst *bool) bool {
	rest := s.data[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, s.i = true, s.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, s.i = false, s.i+5
	default:
		return false
	}
	return true
}

// number scans a JSON number and reports whether it is a plain integer
// (no fraction, no exponent).
func (s *scanner) number() (lit []byte, integer, ok bool) {
	start := s.i
	s.eat('-')
	switch {
	case s.eat('0'):
	case s.digits():
	default:
		return nil, false, false
	}
	integer = true
	if s.eat('.') {
		if integer = false; !s.digits() {
			return nil, false, false
		}
	}
	if s.eat('e') || s.eat('E') {
		integer = false
		if !s.eat('+') {
			s.eat('-')
		}
		if !s.digits() {
			return nil, false, false
		}
	}
	return s.data[start:s.i], integer, true
}

// digits consumes one or more decimal digits.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.data) && s.data[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i > start
}

// intInto parses a plain integer in range; encoding/json rejects a
// fraction or an exponent in an integer field, so they are declined.
func (s *scanner) intInto(dst *int64) bool {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = n
	return err == nil
}

func (s *scanner) nativeIntInto(dst *int) bool {
	var n int64
	ok := s.intInto(&n)
	*dst = int(n)
	return ok && int64(*dst) == n
}

func (s *scanner) floatInto(dst *float64) bool {
	lit, _, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// Buffer is the pooled scratch of the wire path: a response is encoded
// into one before its status is written, and a request or response body
// is read into one before it is parsed. Parsed values never alias it
// (the codec and encoding/json both copy strings out), so it goes back
// to the pool as soon as the parse returns.
type Buffer struct {
	bytes.Buffer
	lim io.LimitedReader
}

// maxPooledBuffer keeps one huge body (an asset install, a 4096-row
// report) from pinning its buffer in the pool.
const maxPooledBuffer = 64 << 10

var bufferPool = sync.Pool{New: func() any {
	b := new(Buffer)
	b.Grow(1024) // a row and its envelope, without regrowing on first use
	return b
}}

// GetBuffer returns an empty pooled buffer; the caller Releases it.
func GetBuffer() *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.Reset()
	return b
}

// Release returns the buffer to the pool.
func (b *Buffer) Release() {
	if b.Cap() <= maxPooledBuffer {
		bufferPool.Put(b)
	}
}

// ReadBounded reads r to its end, stopping one byte past limit, and
// reports whether the body ran past it. sizeHint is the Content-Length
// when one was sent (else <= 0): the buffer is sized for it up front, as
// far as a pooled buffer goes — a peer's word is not worth more.
func (b *Buffer) ReadBounded(r io.Reader, limit, sizeHint int64) (tooLarge bool, err error) {
	if sizeHint > 0 {
		b.Grow(int(min(sizeHint, limit, maxPooledBuffer)) + bytes.MinRead)
	}
	b.lim = io.LimitedReader{R: r, N: limit + 1}
	_, err = b.ReadFrom(&b.lim)
	b.lim.R = nil
	return int64(b.Len()) > limit, err
}
