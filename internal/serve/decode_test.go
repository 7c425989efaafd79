package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"catpa/internal/mc"
	"catpa/internal/partition"
)

// checkDecode runs decodeRequest and encoding/json on body and fails
// unless they agree under the decoder's contract:
//
//   - a body the decoder accepts, encoding/json accepts too, yielding a
//     bitwise-identical Request — save that json.Unmarshal into a
//     Request also validates the task set, so for an invalid set it
//     must fail with exactly the validation error normalize reports;
//   - a body encoding/json decodes (with or without that validation),
//     the decoder accepts too, unless it refuses a duplicate field or
//     trailing data.
//
// It returns the decoder's result.
func checkDecode(tb testing.TB, body []byte) (*Request, error) {
	tb.Helper()
	var got Request
	err := decodeRequest(body, &got)

	// The same Request decoded without the task-set validation: the
	// outer task_set field shadows the embedded Request's.
	var plain struct {
		Request
		TaskSet *struct {
			Tasks []mc.Task `json:"tasks"`
		} `json:"task_set"`
	}
	perr := json.Unmarshal(body, &plain)
	if perr == nil && plain.TaskSet != nil {
		plain.Request.TaskSet = &mc.TaskSet{Tasks: plain.TaskSet.Tasks}
	}
	var want Request
	jerr := json.Unmarshal(body, &want)

	if err != nil {
		if perr == nil && !errors.Is(err, errDuplicateField) && !errors.Is(err, errTrailingData) {
			tb.Fatalf("decoder refused a body encoding/json decodes: %v\nbody: %q", err, body)
		}
		return nil, err
	}
	if perr != nil {
		tb.Fatalf("decoder accepted a body encoding/json refuses (%v)\nbody: %q", perr, body)
	}
	if !sameRequest(&got, &plain.Request) {
		tb.Fatalf("decoded %s\nencoding/json %s\nbody: %q", dumpRequest(&got), dumpRequest(&plain.Request), body)
	}
	var verr error
	if got.TaskSet != nil {
		verr = got.TaskSet.Validate()
	}
	switch {
	case verr == nil && jerr != nil:
		tb.Fatalf("encoding/json refused a valid set: %v\nbody: %q", jerr, body)
	case verr != nil && (jerr == nil || jerr.Error() != verr.Error()):
		tb.Fatalf("encoding/json error %v, want the validation error %v\nbody: %q", jerr, verr, body)
	case verr == nil && !sameRequest(&got, &want):
		tb.Fatalf("decoded %s\nencoding/json %s\nbody: %q", dumpRequest(&got), dumpRequest(&want), body)
	}
	return &got, nil
}

// sameRequest is reflect.DeepEqual with floats compared bitwise, so
// -0 and 0 differ.
func sameRequest(a, b *Request) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	if a.TaskSet == nil {
		return true
	}
	for i := range a.TaskSet.Tasks {
		ta, tb := &a.TaskSet.Tasks[i], &b.TaskSet.Tasks[i]
		if math.Float64bits(ta.Period) != math.Float64bits(tb.Period) {
			return false
		}
		for k := range ta.WCET {
			if math.Float64bits(ta.WCET[k]) != math.Float64bits(tb.WCET[k]) {
				return false
			}
		}
	}
	return true
}

func dumpRequest(r *Request) string {
	s := fmt.Sprintf("%+v", *r)
	if r.TaskSet != nil {
		s += fmt.Sprintf(" tasks=%+v", r.TaskSet.Tasks)
	}
	return s
}

// admitBody is the json.Marshal encoding of a request for an n-task
// set with every scheme, the shape mcbench and clients send.
func admitBody(tb testing.TB, n int) []byte {
	tb.Helper()
	names := make([]string, len(partition.Schemes))
	for i, s := range partition.Schemes {
		names[i] = s.String()
	}
	body, err := json.Marshal(&Request{
		TaskSet: genSet(tb, 4, 2, n, 0.5, int64(n)), M: 4, K: 2, Schemes: names, Tag: "t",
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeCases are the decoder's edge cases, one or more per rule of
// its contract; FuzzAdmitDecode starts from them too.
var decodeCases = []struct {
	name string
	body string
	// check inspects an accepted body's result; nil expects a refusal.
	check func(*Request) bool
	// sentinel, when set, is the error a refusal must wrap.
	sentinel error
}{
	{"exact keys", `{"task_set":{"tasks":[{"id":1,"name":"a","wcet":[1,2],"period":10,"crit":2}]},"m":4,"k":2,"schemes":["FFD"],"backend":"edfvd","timeout_ms":5,"require_full":true,"tag":"x"}`,
		func(r *Request) bool {
			return r.M == 4 && r.K == 2 && r.TimeoutMS == 5 && r.RequireFull && r.Tag == "x" && r.Backend == "edfvd" &&
				len(r.Schemes) == 1 && r.TaskSet.Len() == 1 && r.TaskSet.Tasks[0].WCET[1] == 2
		}, nil},
	{"case-folded keys", `{"M":4,"Task_Set":{"TASKS":[{"ID":3,"WCET":[1],"Period":5,"CRIT":1}]},"K":1,"Require_Full":true}`,
		func(r *Request) bool { return r.M == 4 && r.K == 1 && r.RequireFull && r.TaskSet.Tasks[0].ID == 3 }, nil},
	{"kelvin sign folds to k", "{\"\u212a\":3,\"\u212ax\":1}",
		func(r *Request) bool { return r.K == 3 }, nil},
	{"escaped keys", `{"\u006d":2,"tas\u212a_set":null,"\u0074ag":"x"}`,
		func(r *Request) bool { return r.M == 2 && r.Tag == "x" }, nil},
	{"null for every field", `{"task_set":null,"m":null,"k":null,"schemes":null,"backend":null,"timeout_ms":null,"require_full":null,"tag":null}`,
		func(r *Request) bool { return reflect.DeepEqual(*r, Request{}) }, nil},
	{"null in the task set", `{"task_set":{"tasks":null}}`,
		func(r *Request) bool { return r.TaskSet != nil && r.TaskSet.Tasks == nil }, nil},
	{"null tasks and task fields", `{"task_set":{"tasks":[null,{"id":null,"name":null,"wcet":null,"period":null,"crit":null}]}}`,
		func(r *Request) bool { return r.TaskSet.Len() == 2 && r.TaskSet.Tasks[1].WCET == nil }, nil},
	{"null elements", `{"schemes":[null,"FFD"],"task_set":{"tasks":[{"wcet":[1,null]}]}}`,
		func(r *Request) bool { return r.Schemes[0] == "" && r.TaskSet.Tasks[0].WCET[1] == 0 }, nil},
	{"empty arrays stay non-nil", `{"schemes":[],"task_set":{"tasks":[{"wcet":[]}]}}`,
		func(r *Request) bool { return r.Schemes != nil && r.TaskSet.Tasks[0].WCET != nil }, nil},
	{"empty task set object", `{"task_set":{}}`,
		func(r *Request) bool { return r.TaskSet != nil && r.TaskSet.Tasks == nil }, nil},
	{"nested unknown keys", `{"x":{"y":[1,{"z":null},"s",true,false,-1.5e3],"task_set":5},"m":2,"task_set":{"extra":{"tasks":"no"},"tasks":[{"id":1,"unknown":[[],{}],"wcet":[1],"period":2,"crit":1}]}}`,
		func(r *Request) bool { return r.M == 2 && r.TaskSet.Len() == 1 && r.TaskSet.Tasks[0].Period == 2 }, nil},
	{"repeated unknown key", `{"x":1,"x":2,"m":1}`,
		func(r *Request) bool { return r.M == 1 }, nil},
	{"escaped strings", `{"tag":"a\"b\\c\/é\n\t","backend":"edfvd","task_set":{"tasks":[{"name":"tau₁"}]}}`,
		func(r *Request) bool {
			return r.Tag == "a\"b\\c/é\n\t" && r.Backend == "edfvd" && r.TaskSet.Tasks[0].Name == "tau₁"
		}, nil},
	{"non-ASCII strings", `{"tag":"τ₁ Ω","task_set":{"tasks":[{"name":"flügel"}]}}`,
		func(r *Request) bool { return r.Tag == "τ₁ Ω" && r.TaskSet.Tasks[0].Name == "flügel" }, nil},
	{"invalid UTF-8 becomes U+FFFD", "{\"tag\":\"a\xffb\"}",
		func(r *Request) bool { return r.Tag == "a�b" }, nil},
	{"surrogate escapes", `{"tag":"😀\ud800"}`,
		func(r *Request) bool { return r.Tag == "😀�" }, nil},
	{"negative zero", `{"m":-0,"task_set":{"tasks":[{"period":-0,"wcet":[-0.0,0e5]}]}}`,
		func(r *Request) bool {
			t := r.TaskSet.Tasks[0]
			return r.M == 0 && math.Signbit(t.Period) && math.Signbit(t.WCET[0]) && !math.Signbit(t.WCET[1])
		}, nil},
	{"float forms", `{"task_set":{"tasks":[{"period":1E2,"wcet":[0.1,2.5e-3,1e-400,123456789012345678901234567890]}]}}`,
		func(r *Request) bool { return r.TaskSet.Tasks[0].Period == 100 && r.TaskSet.Tasks[0].WCET[2] == 0 }, nil},
	{"whitespace everywhere", " \t\n{ \"m\" :\r 3 , \"schemes\" : [ \"FFD\" , \"WFD\" ] }\n ",
		func(r *Request) bool { return r.M == 3 && len(r.Schemes) == 2 }, nil},
	{"top-level null", `null`,
		func(r *Request) bool { return reflect.DeepEqual(*r, Request{}) }, nil},
	{"nesting at the limit", `{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
		func(r *Request) bool { return true }, nil},

	{"int field given 8.0", `{"m":8.0}`, nil, nil},
	{"int field given 1e2", `{"k":1e2}`, nil, nil},
	{"int field given \"8\"", `{"timeout_ms":"8"}`, nil, nil},
	{"task id given 1.5", `{"task_set":{"tasks":[{"id":1.5}]}}`, nil, nil},
	{"crit given 1e0", `{"task_set":{"tasks":[{"crit":1e0}]}}`, nil, nil},
	{"int overflow", `{"m":99999999999999999999}`, nil, nil},
	{"float overflow", `{"task_set":{"tasks":[{"period":1e400}]}}`, nil, nil},
	{"string field given a number", `{"tag":5}`, nil, nil},
	{"schemes given a string", `{"schemes":"CA-TPA"}`, nil, nil},
	{"scheme given a number", `{"schemes":[1]}`, nil, nil},
	{"bool given a string", `{"require_full":"true"}`, nil, nil},
	{"task set given an array", `{"task_set":[]}`, nil, nil},
	{"tasks given an object", `{"task_set":{"tasks":{}}}`, nil, nil},
	{"task given a number", `{"task_set":{"tasks":[1]}}`, nil, nil},
	{"wcet given a number", `{"task_set":{"tasks":[{"wcet":1}]}}`, nil, nil},
	{"wcet element given a string", `{"task_set":{"tasks":[{"wcet":["1"]}]}}`, nil, nil},

	{"duplicate key", `{"m":1,"m":2}`, nil, errDuplicateField},
	{"duplicate key by case", `{"m":1,"M":2}`, nil, errDuplicateField},
	{"duplicate null key", `{"tag":null,"tag":"x"}`, nil, errDuplicateField},
	{"duplicate task field", `{"task_set":{"tasks":[{"id":1,"id":2}]}}`, nil, errDuplicateField},
	{"duplicate tasks", `{"task_set":{"tasks":[],"tasks":[]}}`, nil, errDuplicateField},
	{"trailing garbage", `{"m":1} x`, nil, errTrailingData},
	{"second object", `{"m":1}{"m":2}`, nil, errTrailingData},
	{"trailing after null", `null null`, nil, errTrailingData},

	{"empty body", ``, nil, nil},
	{"whitespace body", " \n", nil, nil},
	{"top-level array", `[]`, nil, nil},
	{"top-level string", `"x"`, nil, nil},
	{"top-level number", `5`, nil, nil},
	{"nesting past the limit", `{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`, nil, nil},
	{"unterminated object", `{"m":1`, nil, nil},
	{"trailing comma", `{"m":1,}`, nil, nil},
	{"missing colon", `{"m" 1}`, nil, nil},
	{"bare key", `{m:1}`, nil, nil},
	{"leading zero", `{"m":01}`, nil, nil},
	{"bare decimal point", `{"task_set":{"tasks":[{"period":1.}]}}`, nil, nil},
	{"empty exponent", `{"task_set":{"tasks":[{"period":1e}]}}`, nil, nil},
	{"lone minus", `{"m":-}`, nil, nil},
	{"plus sign", `{"m":+1}`, nil, nil},
	{"control character in string", "{\"tag\":\"a\x01\"}", nil, nil},
	{"bad escape", `{"tag":"\q"}`, nil, nil},
	{"short unicode escape", `{"tag":"\u12"}`, nil, nil},
	{"unterminated string", `{"tag":"abc`, nil, nil},
	{"misspelt literal", `{"require_full":tru}`, nil, nil},
	{"bad literal in skipped value", `{"x":nul}`, nil, nil},
	{"bad number in skipped value", `{"x":[1,-]}`, nil, nil},
	{"missing comma in array", `{"schemes":["a" "b"]}`, nil, nil},
}

func TestDecodeRequestEdgeCases(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := checkDecode(t, []byte(tc.body))
			switch {
			case tc.check == nil && err == nil:
				t.Fatalf("accepted, want a refusal: %s", dumpRequest(req))
			case tc.check == nil && tc.sentinel != nil && !errors.Is(err, tc.sentinel):
				t.Fatalf("error %v does not wrap %v", err, tc.sentinel)
			case tc.check != nil && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.check != nil && !tc.check(req):
				t.Fatalf("unexpected result %s", dumpRequest(req))
			}
		})
	}
}

// numberEdgeCases are number tokens at the edges of the decoder's
// exact conversion: halfway cases in both rounding directions, the
// 19/20-digit significand boundary, the exponent limits of the exact
// path, signed zeros and int overflow.
var numberEdgeCases = []string{
	"0", "-0", "0.0", "-0.0", "0e400", "-0e-400", "0.000",
	"4503599627370496.5", "4503599627370497.5", "9007199254740993", "9007199254740995",
	"9007199254740993e0", "900719925474099.3e1", "18014398509481985", "18014398509481987",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"9999999999999999999", "10000000000000000000", "12345678901234567890", "18446744073709551615",
	"18446744073709551616", "-9223372036854775808", "9223372036854775807", "9223372036854775808",
	"99999999999999999999", "0.1", "0.3", "2.5e-3", "1e-27", "1e-28", "9.999999999999999e-28",
	"1e27", "1e28", "7450580596923828125e-27", "7450580596923828125e27", "1.7976931348623157e308",
	"4.9406564584124654e-324", "2.2250738585072014e-308", "1e400", "-1e400", "1e-400",
	"123e-2", "100e-2", "1E2", "1e+2", "-1.5E-3", "0.0000001", "1e-7",
}

// decodeNumber runs tok alone through the decoder's float or int path.
func decodeNumber(tok string, asInt bool) (float64, int, error) {
	d := decoder{data: []byte(tok)}
	var f float64
	var n int
	var err error
	if asInt {
		err = d.intValue(&n)
	} else {
		err = d.floatValue(&f)
	}
	if err == nil && d.pos != len(tok) {
		err = errTrailingData
	}
	return f, n, err
}

// TestDecodeNumbersMatchStrconv: the decoder's one-pass number path
// agrees bitwise with strconv.ParseFloat and with strconv.Atoi, on the
// exact conversion and on the fallback alike.
func TestDecodeNumbersMatchStrconv(t *testing.T) {
	checkFloat := func(tok string) {
		t.Helper()
		want, werr := strconv.ParseFloat(tok, 64)
		got, _, err := decodeNumber(tok, false)
		if (err != nil) != (werr != nil) || err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: decoded %v (%#x, err %v), strconv %v (%#x, err %v)",
				tok, got, math.Float64bits(got), err, want, math.Float64bits(want), werr)
		}
	}
	checkInt := func(tok string) {
		t.Helper()
		want, werr := strconv.Atoi(tok)
		_, got, err := decodeNumber(tok, true)
		if (err != nil) != (werr != nil) || err == nil && got != want {
			t.Fatalf("%s: decoded int %d (err %v), strconv %d (err %v)", tok, got, err, want, werr)
		}
	}
	for _, tok := range numberEdgeCases {
		checkFloat(tok)
		checkInt(tok)
	}

	rng := rand.New(rand.NewSource(1))
	// json.Marshal's own formatting, 'e' forms included: half random
	// bit patterns, half values spread over the magnitudes task
	// parameters take. Inside [1e-11, 1e19) every one must take the
	// exact path, not the strconv fallback.
	exact := 0
	for i := 0; i < 1<<20; i++ {
		f := math.Float64frombits(rng.Uint64())
		if i%2 == 1 {
			f = rng.Float64() * math.Pow10(rng.Intn(40)-20)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		checkFloat(string(b))
		if a := math.Abs(f); a >= 1e-11 && a < 1e19 {
			d := decoder{data: b}
			n, err := d.number("a number")
			if _, ok := n.float(); err != nil || !ok {
				t.Fatalf("%s (json.Marshal of %v) missed the exact path", b, f)
			}
			exact++
		}
	}
	if exact < 1<<18 {
		t.Fatalf("only %d values exercised the exact path", exact)
	}

	// Random 1-19 digit decimals with a random point and exponent, and
	// 20-21 digit ones that must fall back.
	digits := make([]byte, 0, 32)
	for i := 0; i < 1<<18; i++ {
		digits = digits[:0]
		nd := 1 + rng.Intn(21)
		for j := 0; j < nd; j++ {
			digits = append(digits, byte('0'+rng.Intn(10)))
		}
		if digits[0] == '0' && nd > 1 {
			digits[0] = byte('1' + rng.Intn(9))
		}
		tok := string(digits)
		if p := rng.Intn(nd + 1); p < nd {
			if p == 0 {
				tok = "0." + tok
			} else {
				tok = tok[:p] + "." + tok[p:]
			}
		}
		if rng.Intn(2) == 0 {
			tok += fmt.Sprintf("e%d", rng.Intn(80)-40)
		}
		if rng.Intn(2) == 0 {
			tok = "-" + tok
		}
		checkFloat(tok)
		checkInt(tok)
	}
}

// TestDecodeRequestSharesOneSlab: every WCET vector lives in one slab,
// capped so that appending to one cannot overwrite the next.
func TestDecodeRequestSharesOneSlab(t *testing.T) {
	var req Request
	if err := decodeRequest(admitBody(t, 8), &req); err != nil {
		t.Fatal(err)
	}
	tasks := req.TaskSet.Tasks
	for i := 1; i < len(tasks); i++ {
		prev, cur := tasks[i-1].WCET, tasks[i].WCET
		if cap(prev) != len(prev) {
			t.Fatalf("task %d: WCET cap %d > len %d", i-1, cap(prev), len(prev))
		}
		if unsafe.Add(unsafe.Pointer(&prev[0]), 8*len(prev)) != unsafe.Pointer(&cur[0]) {
			t.Fatalf("tasks %d and %d: WCET vectors are not adjacent in one slab", i-1, i)
		}
	}
}

// TestCacheKeyDoesNotPinBody: decoded strings share the request body's
// memory, so nothing normalize keeps past the request may be one of
// them: the backend name keys the worker's partitioner pool and the tag
// is echoed by the cached response.
func TestCacheKeyDoesNotPinBody(t *testing.T) {
	body := []byte(`{"m":2,"backend":"edfvd","tag":"probe","task_set":{"tasks":[{"id":1,"wcet":[1],"period":4,"crit":1}]}}`)
	var req Request
	if err := decodeRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	job, err := normalize(&req, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if job.backend != req.Backend || unsafe.StringData(job.backend) == unsafe.StringData(req.Backend) {
		t.Fatalf("job backend %q aliases the decoded request's", job.backend)
	}
	if job.tag != req.Tag || unsafe.StringData(job.tag) == unsafe.StringData(req.Tag) {
		t.Fatalf("job tag %q aliases the decoded request's", job.tag)
	}
}

// TestDecodeRequestAllocsIndependentOfTasks is the allocation gate: a
// 96-task body costs the decoder as many allocations as an 8-task one,
// so nothing is allocated per task or per field.
func TestDecodeRequestAllocsIndependentOfTasks(t *testing.T) {
	allocs := func(n int) float64 {
		body := admitBody(t, n)
		var req Request
		return testing.AllocsPerRun(50, func() {
			if err := decodeRequest(body, &req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(96)
	if small != large {
		t.Fatalf("decodeRequest allocates %v times for 8 tasks but %v for 96", small, large)
	}
}

// TestDecoderFieldsMatchTags keeps the decoder's field lists in step
// with the JSON tags encoding/json reads.
func TestDecoderFieldsMatchTags(t *testing.T) {
	for _, tc := range []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(Request{}), requestFields},
		{reflect.TypeOf(mc.TaskSet{}), taskSetFields},
		{reflect.TypeOf(mc.Task{}), taskFields},
	} {
		var tags []string
		for i := 0; i < tc.typ.NumField(); i++ {
			tag, _, _ := strings.Cut(tc.typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, tag)
		}
		if !reflect.DeepEqual(tags, tc.fields) {
			t.Errorf("%v: JSON tags %q, decoder fields %q", tc.typ, tags, tc.fields)
		}
	}
}

func TestReadBody(t *testing.T) {
	body := admitBody(t, 8)
	n := int64(len(body))
	limited := func(r io.Reader, limit int64) io.Reader {
		return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(r), limit)
	}
	for _, tc := range []struct {
		name          string
		r             io.Reader
		contentLength int64
		wantErr       bool
	}{
		{"declared length", limited(bytes.NewReader(body), n), n, false},
		{"unknown length", limited(iotest.OneByteReader(bytes.NewReader(body)), n), -1, false},
		{"understated length", limited(bytes.NewReader(body), n), 10, false},
		{"overstated length", limited(bytes.NewReader(body), n), 1 << 40, false},
		{"over the limit", limited(bytes.NewReader(body), n-1), n, true},
		{"read error", iotest.TimeoutReader(bytes.NewReader(body)), -1, true},
	} {
		got, err := readBody(tc.r, tc.contentLength, n)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: read %d bytes, want an error", tc.name, len(got))
			}
			continue
		}
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%s: read %d of %d bytes, err %v", tc.name, len(got), n, err)
		}
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	body := admitBody(b, 96)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	var req Request
	for i := 0; i < b.N; i++ {
		if err := decodeRequest(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzAdmitDecode is the differential fuzz of the admission decoder
// against encoding/json (see checkDecode); any panic fails it too. The
// committed corpus holds json.Marshal-encoded 1-, 8- and 96-task
// requests; the edge cases and the number edge cases seed the rest.
func FuzzAdmitDecode(f *testing.F) {
	for _, tc := range decodeCases {
		// The nesting-limit bodies stay out: mutants of 20 KB seeds take
		// the fuzzer's minimizer longer than the short CI budget.
		if len(tc.body) < maxDepth {
			f.Add([]byte(tc.body))
		}
	}
	for _, tok := range numberEdgeCases {
		f.Add([]byte(`{"m":` + tok + `}`))
		f.Add([]byte(`{"task_set":{"tasks":[{"period":` + tok + `,"wcet":[` + tok + `]}]}}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _ = checkDecode(t, body)
	})
}
