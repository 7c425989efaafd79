package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
//   - numbers convert with strconv exactly as encoding/json does, so
//     int fields refuse 8.0, 1e2 and "8", and floats are bitwise equal.
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
	tok, err := d.number("an integer")
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		return fmt.Errorf("want an integer, got %s", tok)
	}
	*dst = n
	return nil
}

func (d *decoder) floatValue(dst *float64) error {
	if d.literal("null") {
		return nil
	}
	tok, err := d.number("a number")
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("number %s out of range", tok)
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

// number checks and consumes the number token at the cursor; want
// names the expected type for the error when there is none.
func (d *decoder) number(want string) ([]byte, error) {
	data, start, i := d.data, d.pos, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i+1)
	case i == start:
		return nil, d.typeError(want)
	default:
		d.pos = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		if i++; i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		i = skipDigits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		i = skipDigits(data, i)
	}
	d.pos = i
	return data[start:i], nil
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

func skipDigits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}
