package timeline

import (
	"encoding/json"
	"io"
	"strconv"
)

// AppendJSON appends tl's indented JSON form to b and returns the extended
// buffer. The bytes are exactly those of json.MarshalIndent(tl, prefix,
// "  "): every line after the first starts with prefix, omitempty fields
// are left out when empty, and a nil Windows slice renders as null. The
// schema is fixed, so one pass over the windows writes it directly, with
// none of encoding/json's reflection or its second, indenting pass.
func AppendJSON(b []byte, tl *Timeline, prefix string) []byte {
	b, _ = appendJSON(b, tl, prefix, nil)
	return b
}

// WriteJSON renders the timeline as indented JSON, newline-terminated:
// the bytes of AppendJSON(nil, tl, "") plus '\n', which is what
// json.Encoder with a two-space indent writes. The bytes go out in chunks
// of about flushAt, so the buffer stays small however long the run.
func WriteJSON(w io.Writer, tl *Timeline) error {
	b, err := appendJSON(make([]byte, 0, 2*flushAt), tl, "", w)
	if err == nil {
		_, err = w.Write(append(b, '\n'))
	}
	return err
}

// flushAt is the buffered size past which WriteJSON hands the bytes
// rendered so far to its writer, between two windows.
const flushAt = 32 << 10

// appendJSON is AppendJSON that, given a writer, flushes the buffer to it
// whenever a window ends past flushAt; the caller writes what remains.
func appendJSON(b []byte, tl *Timeline, prefix string, w io.Writer) ([]byte, error) {
	if tl == nil {
		return append(b, "null"...), nil
	}
	in := newIndent(prefix)
	b = append(b, '{')
	b = strconv.AppendInt(append(append(b, in.line(1)...), `"schema": `...), int64(tl.Schema), 10)
	b = uintMember(b, in.next(1), `"interval": `, tl.Interval)
	b = append(append(b, in.next(1)...), `"windows": `...)
	switch {
	case tl.Windows == nil:
		b = append(b, "null"...)
	case len(tl.Windows) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range tl.Windows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendWindow(append(b, in.line(2)...), &tl.Windows[i], in)
			if w != nil && len(b) >= flushAt {
				if _, err := w.Write(b); err != nil {
					return nil, err
				}
				b = b[:0]
			}
		}
		b = append(append(b, in.line(1)...), ']')
	}
	if tl.Dropped != 0 {
		b = uintMember(b, in.next(1), `"dropped": `, tl.Dropped)
	}
	if len(tl.Quantiles) > 0 {
		b = append(append(b, in.next(1)...), `"quantiles": [`...)
		for i, q := range tl.Quantiles {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(append(b, in.line(2)...), q)
		}
		b = append(append(b, in.line(1)...), ']')
	}
	b = AppendJSONString(append(append(b, in.next(1)...), `"digest": `...), tl.Digest)
	return append(append(b, in.line(0)...), '}'), nil
}

// AppendJSONString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes it (HTML-safe). Printable ASCII other than <, >
// and & takes a fast path; any other string is handed to json.Marshal.
func AppendJSONString(b []byte, s string) []byte {
	start := len(b)
	b = append(b, '"')
	done := 0
	for i := 0; i < len(s); i++ {
		switch jsonEscape[s[i]] {
		case escNone:
			continue
		case escBackslash:
			b = append(append(b, s[done:i]...), '\\')
			done = i
		default:
			q, _ := json.Marshal(s) // a string always marshals
			return append(b[:start], q...)
		}
	}
	return append(append(b, s[done:]...), '"')
}

// String bytes by the escaping encoding/json gives them: none, a
// backslash before the byte, or anything else (control bytes, HTML
// characters, DEL and every non-ASCII byte), which the fallback handles.
const (
	escNone = iota
	escBackslash
	escOther
)

var jsonEscape = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c == '"' || c == '\\':
			t[c] = escBackslash
		case c < 0x20 || c >= 0x7f || c == '<' || c == '>' || c == '&':
			t[c] = escOther
		}
	}
	return t
}()

// indent holds ",\n", the prefix and the deepest level's indentation, so
// each line start is one slice of it: next(d) begins a member or element
// after a predecessor, line(d) the first one (or a closing bracket).
type indent string

// maxDepth is the schema's deepest nesting: a counter's members sit in
// timeline > windows > window > counters > counter.
const maxDepth = 5

func newIndent(prefix string) indent {
	const spaces = "          " // two per level, maxDepth levels
	return indent(",\n" + prefix + spaces)
}

func (in indent) next(d int) string { return string(in[:len(in)-2*(maxDepth-d)]) }
func (in indent) line(d int) string { return string(in[1 : len(in)-2*(maxDepth-d)]) }

// uintMember appends one unsigned member: the line start lead, the quoted
// name with its colon, then the value.
func uintMember(b []byte, lead, name string, v uint64) []byte {
	return strconv.AppendUint(append(append(b, lead...), name...), v, 10)
}

func stringMember(b []byte, lead, name, v string) []byte {
	return AppendJSONString(append(append(b, lead...), name...), v)
}

// appendWindow appends one window object, which sits at depth 2.
func appendWindow(b []byte, w *Window, in indent) []byte {
	b = append(append(append(b, '{'), in.line(3)...), `"index": `...)
	b = strconv.AppendInt(b, int64(w.Index), 10)
	b = uintMember(b, in.next(3), `"start": `, w.Start)
	b = uintMember(b, in.next(3), `"end": `, w.End)
	b = uintMember(b, in.next(3), `"events": `, w.Events)
	elem, end := in.line(4), in.line(3)
	if len(w.Counters) > 0 {
		b = append(append(b, in.next(3)...), `"counters": [`...)
		for i := range w.Counters {
			c := &w.Counters[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(b, elem...), '{')
			b = stringMember(b, in.line(5), `"key": `, c.Key)
			b = uintMember(b, in.next(5), `"delta": `, c.Delta)
			b = uintMember(b, in.next(5), `"rate_per_kcycle": `, c.RatePerKCycle)
			b = append(append(b, elem...), '}')
		}
		b = append(append(b, end...), ']')
	}
	if len(w.Levels) > 0 {
		b = append(append(b, in.next(3)...), `"levels": [`...)
		for i, l := range w.Levels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(b, elem...), '{')
			b = stringMember(b, in.line(5), `"key": `, l.Key)
			b = strconv.AppendInt(append(append(b, in.next(5)...), `"value": `...), l.Value, 10)
			b = append(append(b, elem...), '}')
		}
		b = append(append(b, end...), ']')
	}
	if len(w.Hists) > 0 {
		b = append(append(b, in.next(3)...), `"hists": [`...)
		for i := range w.Hists {
			h := &w.Hists[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(b, elem...), '{')
			b = stringMember(b, in.line(5), `"key": `, h.Key)
			b = uintMember(b, in.next(5), `"count": `, h.Count)
			b = uintMember(b, in.next(5), `"sum": `, h.Sum)
			b = uintMember(b, in.next(5), `"p50": `, h.P50)
			b = uintMember(b, in.next(5), `"p90": `, h.P90)
			b = uintMember(b, in.next(5), `"p99": `, h.P99)
			if h.P999 != 0 {
				b = uintMember(b, in.next(5), `"p999": `, h.P999)
			}
			b = append(append(b, elem...), '}')
		}
		b = append(append(b, end...), ']')
	}
	if len(w.Breakdown) > 0 {
		b = append(append(b, in.next(3)...), `"breakdown": [`...)
		for i := range w.Breakdown {
			c := &w.Breakdown[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(b, elem...), '{')
			b = stringMember(b, in.line(5), `"role": `, c.Role)
			b = stringMember(b, in.next(5), `"axis": `, c.Axis)
			b = stringMember(b, in.next(5), `"category": `, c.Category)
			b = uintMember(b, in.next(5), `"events": `, c.Events)
			b = append(append(b, elem...), '}')
		}
		b = append(append(b, end...), ']')
	}
	return append(append(b, in.line(2)...), '}')
}
