package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"

	"catpa/internal/mc"
	"catpa/internal/partition"
)

// The decoder's two deliberate tightenings over encoding/json, each
// refused with its own sentinel so tests and callers can tell them
// apart from malformed JSON.
var (
	// errDuplicateField: a known field appears twice in one object.
	// encoding/json silently merges the occurrences.
	errDuplicateField = errors.New("duplicate field")
	// errTrailingData: non-whitespace follows the top-level value.
	// json.Decoder ignores it.
	errTrailingData = errors.New("trailing data after the request object")
)

// maxDepth is encoding/json's nesting limit, counted its way: every
// object and array from the top level down, known or skipped.
const maxDepth = 10000

// The JSON names of the fields decodeRequest fills; they must match
// the struct tags of Request, mc.TaskSet and mc.Task.
var (
	requestFields = []string{"task_set", "m", "k", "schemes", "backend", "timeout_ms", "require_full", "tag"}
	taskSetFields = []string{"tasks"}
	taskFields    = []string{"id", "name", "wcet", "period", "crit"}
)

// readBody reads the whole request body. The buffer is sized from the
// declared Content-Length (capped at limit; r enforces the limit) with
// one spare byte, so a well-formed request reads without regrowing.
func readBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	size := int64(512)
	if contentLength >= 0 {
		size = min(contentLength, limit) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeRequest parses an admission request body into req in one pass
// without reflection. It yields exactly what json.Unmarshal into a
// Request yields, except that it does not validate the task set (that
// happens once, in normalize) and that it refuses duplicate known
// fields (errDuplicateField) and trailing data (errTrailingData):
//
//   - keys match a field name exactly, else by bytes.EqualFold;
//   - unknown keys are skipped at any depth;
//   - null leaves a field at its zero value (a null task_set is nil);
//   - a string holding an escape or a non-ASCII byte is unquoted by
//     json.Unmarshal on that token alone;
//   - numbers are scanned once, collecting the significand and the
//     decimal exponent while the grammar is checked; floats convert
//     exactly from those (numToken.float) or, outside that path,
//     through strconv.ParseFloat, and ints through the same
//     accumulator or strconv.Atoi, so floats are bitwise what
//     encoding/json gives and int fields refuse 8.0, 1e2 and "8".
//
// The task set's WCET vectors share one slab. The allocation count
// does not grow with the number of tasks or fields as long as the body
// stays within the bytesPerTask and bytesPerWCET sizing and its
// strings are plain ASCII.
func decodeRequest(body []byte, req *Request) error {
	*req = Request{}
	d := decoder{data: body}
	d.skipSpace()
	switch {
	case d.pos == len(body):
		return errors.New("empty request body")
	case d.literal("null"):
	case d.peek() == '{':
		if err := d.request(req); err != nil {
			return err
		}
	default:
		return d.typeError("a request object")
	}
	d.skipSpace()
	if d.pos < len(body) {
		return fmt.Errorf("%w at offset %d", errTrailingData, d.pos)
	}
	return nil
}

// The task set's storage is sized from the body length: a body with
// at most one task per bytesPerTask bytes and one WCET value per
// bytesPerWCET bytes decodes without regrowing (json.Marshal of a
// generated task takes ~85 bytes), and the up-front allocation stays
// within 1.5 times the body size.
const (
	bytesPerTask = 64
	bytesPerWCET = 16
)

// decoder is the cursor of one decodeRequest call.
type decoder struct {
	data  []byte
	pos   int
	depth int
	// str is data as a string, made on the first plain string value;
	// every plain string field is a substring of it.
	str string
	// wcet is the WCET slab of the task set being decoded.
	wcet []float64
}

func (d *decoder) request(req *Request) error {
	return d.object(requestFields, func(name string) error {
		switch name {
		case "task_set":
			return d.taskSet(&req.TaskSet)
		case "m":
			return d.intValue(&req.M)
		case "k":
			return d.intValue(&req.K)
		case "schemes":
			return d.stringsValue(&req.Schemes)
		case "backend":
			return d.stringValue(&req.Backend)
		case "timeout_ms":
			return d.intValue(&req.TimeoutMS)
		case "require_full":
			return d.boolValue(&req.RequireFull)
		default: // "tag"
			return d.stringValue(&req.Tag)
		}
	})
}

func (d *decoder) taskSet(dst **mc.TaskSet) error {
	if d.literal("null") {
		return nil
	}
	if d.peek() != '{' {
		return d.typeError("an object")
	}
	ts := new(mc.TaskSet)
	*dst = ts
	return d.object(taskSetFields, func(string) error { return d.tasks(ts) })
}

// wcetSpan locates one task's WCET vector in the slab; lo < 0 marks a
// nil vector (absent or null), as opposed to an empty one.
type wcetSpan struct{ lo, hi int }

func (d *decoder) tasks(ts *mc.TaskSet) error {
	if d.literal("null") {
		return nil
	}
	if d.peek() != '[' {
		return d.typeError("an array")
	}
	tasks := make([]mc.Task, 0, len(d.data)/bytesPerTask)
	spans := make([]wcetSpan, 0, cap(tasks))
	d.wcet = make([]float64, 0, len(d.data)/bytesPerWCET)
	err := d.array(func() error {
		var t mc.Task
		span := wcetSpan{lo: -1}
		if !d.literal("null") {
			if d.peek() != '{' {
				return d.typeError("a task object")
			}
			err := d.object(taskFields, func(name string) error {
				switch name {
				case "id":
					return d.intValue(&t.ID)
				case "name":
					return d.stringValue(&t.Name)
				case "wcet":
					return d.wcetValue(&span)
				case "period":
					return d.floatValue(&t.Period)
				default: // "crit"
					return d.intValue(&t.Crit)
				}
			})
			if err != nil {
				return err
			}
		}
		tasks = append(tasks, t)
		spans = append(spans, span)
		return nil
	})
	if err != nil {
		return err
	}
	// The slab may have moved while it grew, so the vectors are cut
	// from it only now, each capped so an append cannot spill into its
	// neighbour.
	for i, s := range spans {
		if s.lo >= 0 {
			tasks[i].WCET = d.wcet[s.lo:s.hi:s.hi]
		}
	}
	ts.Tasks = tasks
	return nil
}

func (d *decoder) wcetValue(span *wcetSpan) error {
	if d.literal("null") {
		return nil
	}
	if d.peek() != '[' {
		return d.typeError("an array")
	}
	span.lo = len(d.wcet)
	err := d.array(func() error {
		var c float64
		err := d.floatValue(&c)
		d.wcet = append(d.wcet, c)
		return err
	})
	span.hi = len(d.wcet)
	return err
}

func (d *decoder) stringsValue(dst *[]string) error {
	if d.literal("null") {
		return nil
	}
	if d.peek() != '[' {
		return d.typeError("an array")
	}
	out := make([]string, 0, len(partition.Schemes))
	err := d.array(func() error {
		var s string
		err := d.stringValue(&s)
		out = append(out, s)
		return err
	})
	*dst = out
	return err
}

func (d *decoder) stringValue(dst *string) error {
	if d.literal("null") {
		return nil
	}
	if d.peek() != '"' {
		return d.typeError("a string")
	}
	start := d.pos
	plain, err := d.scanString()
	if err != nil {
		return err
	}
	if !plain {
		// Through a local: a pointer into a task would otherwise
		// escape and move every task to the heap.
		var s string
		err := json.Unmarshal(d.data[start:d.pos], &s)
		*dst = s
		return err
	}
	if d.str == "" {
		d.str = string(d.data)
	}
	*dst = d.str[start+1 : d.pos-1]
	return nil
}

func (d *decoder) intValue(dst *int) error {
	if d.literal("null") {
		return nil
	}
	n, err := d.number("an integer")
	if err != nil {
		return err
	}
	if n.frac {
		return fmt.Errorf("want an integer, got %s", n.tok)
	}
	// Up to 18 digits always fit an int64; longer tokens take strconv,
	// which reports overflow.
	if n.nd <= 18 && n.mant <= math.MaxInt {
		v := int(n.mant)
		if n.neg {
			v = -v
		}
		*dst = v
		return nil
	}
	v, err := strconv.Atoi(string(n.tok))
	if err != nil {
		return fmt.Errorf("want an integer, got %s", n.tok)
	}
	*dst = v
	return nil
}

func (d *decoder) floatValue(dst *float64) error {
	if d.literal("null") {
		return nil
	}
	n, err := d.number("a number")
	if err != nil {
		return err
	}
	if v, ok := n.float(); ok {
		*dst = v
		return nil
	}
	v, err := strconv.ParseFloat(string(n.tok), 64)
	if err != nil {
		return fmt.Errorf("number %s out of range", n.tok)
	}
	*dst = v
	return nil
}

func (d *decoder) boolValue(dst *bool) error {
	switch {
	case d.literal("null"):
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.typeError("a boolean")
	}
	return nil
}

// object parses the object at the cursor. For each key matching one
// of names it calls field with that name and the cursor on the value;
// the values of other keys are skipped.
func (d *decoder) object(names []string, field func(name string) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	var seen uint32
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		keyStart := d.pos
		key, err := d.key()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.pos++
		d.skipSpace()
		if i := match(names, key); i < 0 {
			err = d.skip()
		} else if seen&(1<<i) != 0 {
			return fmt.Errorf("%w %q at offset %d", errDuplicateField, names[i], keyStart)
		} else {
			seen |= 1 << i
			if err = field(names[i]); err != nil {
				err = fmt.Errorf("%s: %w", names[i], err)
			}
		}
		if err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// array parses the array at the cursor, calling elem with the cursor
// on each element.
func (d *decoder) array(elem func() error) error {
	if err := d.enter(); err != nil {
		return err
	}
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxError("after array element")
		}
	}
}

// enter consumes the '{' or '[' at the cursor.
func (d *decoder) enter() error {
	d.pos++
	d.depth++
	if d.depth > maxDepth {
		return d.syntaxError("exceeded max depth")
	}
	return nil
}

// skip checks and consumes any one value.
func (d *decoder) skip() error {
	switch d.peek() {
	case '{':
		return d.object(nil, nil)
	case '[':
		return d.array(d.skip)
	case '"':
		_, err := d.scanString()
		return err
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.syntaxError("in literal")
	default:
		_, err := d.number("a value")
		return err
	}
}

// key returns the object key at the cursor, unquoted.
func (d *decoder) key() ([]byte, error) {
	start := d.pos
	plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if plain {
		return d.data[start+1 : d.pos-1], nil
	}
	var s string
	if err := json.Unmarshal(d.data[start:d.pos], &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// match returns the index of the name key selects, or -1: an exact
// match first, then a case-folded one (encoding/json's rule).
func match(names []string, key []byte) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// scanString checks and consumes the string token at the cursor and
// reports whether it is plain: printable ASCII without escapes, so its
// value is its raw bytes.
func (d *decoder) scanString() (plain bool, err error) {
	plain = true
	for i := d.pos + 1; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(d.data) {
				i++
				continue
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(d.data) || !isHex(d.data[j]) {
						d.pos = min(j, len(d.data))
						return false, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.pos = i + 1
				return false, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			d.pos = i
			return false, d.syntaxError("in string literal")
		default:
			if c >= 0x80 {
				plain = false
			}
			i++
		}
	}
	d.pos = len(d.data)
	return false, d.syntaxError("in string literal")
}

// numToken is one JSON number as number scanned it: the token, and its
// value as ±mant·10^exp, exact while the token has at most
// maxMantDigits significant digits.
type numToken struct {
	tok  []byte
	mant uint64 // the first maxMantDigits significant digits
	exp  int    // decimal exponent of mant, clamped far outside float64 range
	nd   int    // significant digits seen; leading zeros do not count
	neg  bool
	frac bool // a fraction or exponent part is present
}

// maxMantDigits is the most decimal digits a uint64 always holds.
const maxMantDigits = 19

// number checks and consumes the number token at the cursor,
// collecting its significand and decimal exponent on the way; want
// names the expected type for the error when there is none.
func (d *decoder) number(want string) (numToken, error) {
	var n numToken
	data, start, i := d.data, d.pos, d.pos
	if i < len(data) && data[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = n.digits(data, i, false)
	case i == start:
		return n, d.typeError(want)
	default:
		d.pos = i
		return n, d.syntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		n.frac = true
		if i++; i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return n, d.syntaxError("after decimal point in numeric literal")
		}
		i = n.digits(data, i, true)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		n.frac = true
		negExp := false
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			negExp = data[i] == '-'
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return n, d.syntaxError("in exponent of numeric literal")
		}
		e := 0
		for ; i < len(data) && isDigit(data[i]); i++ {
			if e < 1e6 { // far past float64 range; stop before overflow
				e = e*10 + int(data[i]-'0')
			}
		}
		if negExp {
			e = -e
		}
		n.exp += e
	}
	d.pos = i
	n.tok = data[start:i]
	return n, nil
}

// digits consumes the digit run at i into the significand; fraction
// digits also scale the exponent down.
func (n *numToken) digits(data []byte, i int, frac bool) int {
	start, mant, nd := i, n.mant, n.nd
	if nd == 0 { // leading zeros are not significant
		for i < len(data) && data[i] == '0' {
			i++
		}
	}
	for ; i < len(data) && isDigit(data[i]); i++ {
		if nd < maxMantDigits {
			mant = mant*10 + uint64(data[i]-'0')
		}
		nd++
	}
	n.mant, n.nd = mant, nd
	if frac {
		n.exp -= i - start
	}
	return i
}

// pow5 holds 5^0 through 5^27, every power of five below 2^64.
var pow5 = func() (p [28]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 5 * p[i-1]
	}
	return p
}()

// float converts the token exactly when its value is M·10^e with a
// complete significand M and either -27 <= e <= 0 or M·5^e < 2^64:
// writing 10^e = 5^e·2^e, the value is then the ratio of two integers
// below 2^64 times a power of two, which ratToFloat rounds correctly.
// It reports false for every other token, which then takes
// strconv.ParseFloat. json.Marshal writes shortest round-trip digits
// (at most 17), so its output for every magnitude from 1e-11 up to
// 1e19 takes the exact path.
func (n *numToken) float() (float64, bool) {
	if n.nd > maxMantDigits {
		return 0, false
	}
	var v float64
	switch {
	case n.mant == 0:
	case n.exp < 0 && -n.exp < len(pow5):
		v = ratToFloat(n.mant, pow5[-n.exp], n.exp)
	case n.exp >= 0 && n.exp < len(pow5):
		hi, lo := bits.Mul64(n.mant, pow5[n.exp])
		if hi != 0 {
			return 0, false
		}
		v = ratToFloat(lo, 1, n.exp)
	default:
		return 0, false
	}
	if n.neg {
		v = -v
	}
	return v, true
}

// ratToFloat returns num/den·2^bexp rounded to the nearest float64,
// ties to even, for num, den >= 1 and a result in the normal range
// (callers keep it within 2^±100). It scales num by 2^s so that the
// 128/64-bit quotient q = ⌊num·2^s/den⌋ has exactly 53 bits; the
// remainder r then decides the rounding exactly: up when r/den > 1/2,
// to even when r/den = 1/2.
func ratToFloat(num, den uint64, bexp int) float64 {
	nb, db := bits.Len64(num), bits.Len64(den)
	// num/den lies in [2^(nb-db), 2^(nb-db+1)) when num's leading bits
	// are at least den's, and in (2^(nb-db-1), 2^(nb-db)) otherwise.
	s := 53 - nb + db
	if num<<(64-nb) >= den<<(64-db) {
		s--
	}
	var q, r uint64
	if s >= 0 {
		// q < 2^53 keeps the high word below den, as Div64 requires.
		var hi, lo uint64
		if s < 64 {
			hi, lo = num>>(64-s), num<<s
		} else {
			hi = num << (s - 64)
		}
		q, r = bits.Div64(hi, lo, den)
	} else {
		den <<= -s // num has at most 64 bits, so den stays below 2^64
		q, r = num/den, num%den
	}
	if half := den - r; r > half || r == half && q&1 == 1 {
		if q++; q == 1<<53 {
			q >>= 1
			s--
		}
	}
	return math.Float64frombits(uint64(bexp-s+52+1023)<<52 | q&(1<<52-1))
}

// literal consumes lit if the input continues with it.
func (d *decoder) literal(lit string) bool {
	if d.peek() == lit[0] && len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// peek returns the byte at the cursor, or 0 at the end of the input.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) && d.data[d.pos] <= ' ' {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// typeError reports a value at the cursor that is not the wanted kind.
func (d *decoder) typeError(want string) error {
	if d.pos == len(d.data) {
		return errors.New("unexpected end of input")
	}
	return fmt.Errorf("want %s at offset %d, got %q", want, d.pos, d.data[d.pos])
}

// syntaxError reports malformed JSON at the cursor.
func (d *decoder) syntaxError(context string) error {
	if d.pos >= len(d.data) {
		return errors.New("unexpected end of input")
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.data[d.pos], d.pos, context)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
