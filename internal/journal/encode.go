package journal

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"time"
	"unicode/utf8"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

// AppendRecord appends r, encoded as one JSON object, to dst and returns
// the extended buffer. It is the write path of both backends and writes
// byte for byte what json.Marshal(r) writes: the same key order,
// omitempty rules, null for a nil slice or pointer, HTML-escaped strings,
// RFC 3339 times and float format. The bytes must not change, because
// UntilCheckpoint counts them and with them sets the checkpoint cadence;
// the tests hold this encoder to json.Marshal. It fails where
// json.Marshal fails, on a non-finite float or a time Time.MarshalJSON
// refuses, and then returns dst with its length unchanged. Decoding
// stays on encoding/json.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	e := recordEncoder{b: dst}
	e.record(r)
	if e.err != nil {
		return dst, fmt.Errorf("journal: encoding record %d (%s): %w", r.Seq, r.Kind, e.err)
	}
	return e.b, nil
}

// recordEncoder appends to b and keeps the first error, as encoding/json
// reports it.
type recordEncoder struct {
	b   []byte
	err error
}

func (e *recordEncoder) record(r *Record) {
	e.b = append(e.b, `{"seq":`...)
	e.b = strconv.AppendInt(e.b, r.Seq, 10)
	e.b = append(e.b, `,"kind":`...)
	e.quote(string(r.Kind))
	e.b = append(e.b, `,"at":`...)
	e.timestamp(r.At)
	if r.App != nil {
		e.b = append(e.b, `,"app":`...)
		e.application(r.App)
	}
	if r.AppID != "" {
		e.b = append(e.b, `,"appID":`...)
		e.quote(r.AppID)
	}
	if r.Cycle != 0 {
		e.b = append(e.b, `,"cycle":`...)
		e.b = strconv.AppendInt(e.b, int64(r.Cycle), 10)
	}
	// omitempty never omits a struct, so the zero times are written.
	e.b = append(e.b, `,"nextRun":`...)
	e.timestamp(r.NextRun)
	if len(r.Batch) > 0 {
		e.b = append(e.b, `,"batch":`...)
		appendList(e, r.Batch, (*recordEncoder).quote)
	}
	if len(r.Assignments) > 0 {
		e.b = append(e.b, `,"assignments":`...)
		appendList(e, r.Assignments, (*recordEncoder).assignment)
	}
	if r.Retries != 0 {
		e.b = append(e.b, `,"retries":`...)
		e.b = strconv.AppendInt(e.b, int64(r.Retries), 10)
	}
	if r.Attempts != 0 {
		e.b = append(e.b, `,"attempts":`...)
		e.b = strconv.AppendInt(e.b, int64(r.Attempts), 10)
	}
	e.b = append(e.b, `,"notBefore":`...)
	e.timestamp(r.NotBefore)
	if len(r.Evictions) > 0 {
		e.b = append(e.b, `,"evictions":`...)
		appendList(e, r.Evictions, (*recordEncoder).eviction)
	}
	if len(r.Restored) > 0 {
		e.b = append(e.b, `,"restored":`...)
		appendList(e, r.Restored, (*recordEncoder).containerID)
	}
	if r.Node != 0 {
		e.b = append(e.b, `,"node":`...)
		e.b = strconv.AppendInt(e.b, int64(r.Node), 10)
	}
	if s := r.Breaker; s != nil {
		e.b = append(e.b, `,"breaker":{"state":`...)
		e.quote(s.State)
		e.b = append(e.b, `,"level":`...)
		e.b = strconv.AppendInt(e.b, int64(s.Level), 10)
		e.b = append(e.b, `,"failures":`...)
		e.b = strconv.AppendInt(e.b, int64(s.Failures), 10)
		e.b = append(e.b, `,"wait":`...)
		e.b = strconv.AppendInt(e.b, int64(s.Wait), 10)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}')
}

// appendList writes s as a JSON array, or null when s is nil.
func appendList[T any](e *recordEncoder, s []T, item func(*recordEncoder, T)) {
	if s == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, v := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		item(e, v)
	}
	e.b = append(e.b, ']')
}

func (e *recordEncoder) application(a *lra.Application) {
	e.b = append(e.b, `{"ID":`...)
	e.quote(a.ID)
	e.b = append(e.b, `,"Groups":`...)
	appendList(e, a.Groups, (*recordEncoder).group)
	e.b = append(e.b, `,"Constraints":`...)
	appendList(e, a.Constraints, (*recordEncoder).constraint)
	e.b = append(e.b, '}')
}

func (e *recordEncoder) group(g lra.ContainerGroup) {
	e.b = append(e.b, `{"Name":`...)
	e.quote(g.Name)
	e.b = append(e.b, `,"Count":`...)
	e.b = strconv.AppendInt(e.b, int64(g.Count), 10)
	e.b = append(e.b, `,"Demand":`...)
	e.vector(g.Demand)
	e.b = append(e.b, `,"Tags":`...)
	appendList(e, g.Tags, (*recordEncoder).tag)
	e.b = append(e.b, '}')
}

func (e *recordEncoder) constraint(c constraint.Constraint) {
	e.b = append(e.b, `{"Terms":`...)
	appendList(e, c.Terms, func(e *recordEncoder, term []constraint.Atom) {
		appendList(e, term, (*recordEncoder).atom)
	})
	e.b = append(e.b, `,"Weight":`...)
	e.float(c.Weight)
	e.b = append(e.b, '}')
}

func (e *recordEncoder) atom(a constraint.Atom) {
	e.b = append(e.b, `{"Subject":`...)
	appendList(e, a.Subject, (*recordEncoder).tag)
	e.b = append(e.b, `,"Target":`...)
	appendList(e, a.Target, (*recordEncoder).tag)
	e.b = append(e.b, `,"Min":`...)
	e.b = strconv.AppendInt(e.b, int64(a.Min), 10)
	e.b = append(e.b, `,"Max":`...)
	e.b = strconv.AppendInt(e.b, int64(a.Max), 10)
	e.b = append(e.b, `,"Group":`...)
	e.quote(string(a.Group))
	e.b = append(e.b, '}')
}

func (e *recordEncoder) assignment(a lra.Assignment) {
	e.b = append(e.b, `{"Container":`...)
	e.quote(string(a.Container))
	e.b = append(e.b, `,"Group":`...)
	e.quote(a.Group)
	e.b = append(e.b, `,"Node":`...)
	e.b = strconv.AppendInt(e.b, int64(a.Node), 10)
	e.b = append(e.b, `,"Demand":`...)
	e.vector(a.Demand)
	e.b = append(e.b, `,"Tags":`...)
	appendList(e, a.Tags, (*recordEncoder).tag)
	e.b = append(e.b, '}')
}

// eviction writes every field but Owner, which is tagged json:"-".
func (e *recordEncoder) eviction(v cluster.Eviction) {
	e.b = append(e.b, `{"Container":`...)
	e.quote(string(v.Container))
	e.b = append(e.b, `,"Node":`...)
	e.b = strconv.AppendInt(e.b, int64(v.Node), 10)
	e.b = append(e.b, `,"Demand":`...)
	e.vector(v.Demand)
	e.b = append(e.b, `,"Tags":`...)
	appendList(e, v.Tags, (*recordEncoder).tag)
	e.b = append(e.b, '}')
}

func (e *recordEncoder) vector(v resource.Vector) {
	e.b = append(e.b, `{"MemoryMB":`...)
	e.b = strconv.AppendInt(e.b, v.MemoryMB, 10)
	e.b = append(e.b, `,"VCores":`...)
	e.b = strconv.AppendInt(e.b, v.VCores, 10)
	e.b = append(e.b, '}')
}

func (e *recordEncoder) tag(t constraint.Tag)              { e.quote(string(t)) }
func (e *recordEncoder) containerID(c cluster.ContainerID) { e.quote(string(c)) }

// zeroTime is what Time.MarshalJSON writes for the zero time.Time, which
// most records carry in two of their three time fields.
const zeroTime = `"0001-01-01T00:00:00Z"`

var timeType = reflect.TypeOf(time.Time{})

// timestamp writes t as Time.MarshalJSON does: RFC 3339 with nanoseconds,
// refused when the year is not four digits or the zone offset reaches
// 24 hours.
func (e *recordEncoder) timestamp(t time.Time) {
	if t == (time.Time{}) {
		e.b = append(e.b, zeroTime...)
		return
	}
	e.b = append(e.b, '"')
	n := len(e.b)
	e.b = t.AppendFormat(e.b, time.RFC3339Nano)
	if s := e.b[n:]; s[len("9999")] != '-' || s[len(s)-1] != 'Z' && badZone(s) {
		_, err := t.MarshalJSON()
		e.fail(&json.MarshalerError{Type: timeType, Err: err})
		return
	}
	e.b = append(e.b, '"')
}

// badZone reports whether an RFC 3339 text ending in a numeric zone
// offset has one that RFC 3339 cannot hold: three hour digits, or an hour
// of 24 or more.
func badZone(s []byte) bool {
	if c := s[len(s)-len("Z07:00")]; '0' <= c && c <= '9' {
		return true
	}
	h := s[len(s)-len("07:00"):]
	return 10*(h[0]-'0')+(h[1]-'0') >= 24
}

// float writes f in encoding/json's format: 'f' notation, and below 1e-6
// or from 1e21 on 'e' notation without a leading zero in a negative
// exponent.
func (e *recordEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fail(&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

func (e *recordEncoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

const hexDigits = "0123456789abcdef"

// quote writes s quoted the way json.Marshal does: '"', '\\' and the
// control characters escaped, '<', '>' and '&' as \u003c, \u003e and
// \u0026, U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func (e *recordEncoder) quote(s string) {
	e.b = append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			e.b = append(e.b, s[start:i]...)
			switch c {
			case '"', '\\':
				e.b = append(e.b, '\\', c)
			case '\b':
				e.b = append(e.b, '\\', 'b')
			case '\f':
				e.b = append(e.b, '\\', 'f')
			case '\n':
				e.b = append(e.b, '\\', 'n')
			case '\r':
				e.b = append(e.b, '\\', 'r')
			case '\t':
				e.b = append(e.b, '\\', 't')
			default:
				e.b = append(e.b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	e.b = append(e.b, s[start:]...)
	e.b = append(e.b, '"')
}
