package journal

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

// checkEncoding holds AppendRecord to json.Marshal, the encoder the
// journal wrote with before it: the same bytes, or an error from both
// with the same text. It appends behind a prefix, so a write outside the
// appended region or a failure that keeps a partial record shows.
func checkEncoding(t testing.TB, r *Record) {
	t.Helper()
	want, werr := json.Marshal(r)
	const prefix = "prefix"
	dst := append(make([]byte, 0, 4096), prefix...)
	got, gerr := AppendRecord(dst, r)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil {
			t.Fatalf("json.Marshal error %v, AppendRecord error %v: both or neither must fail", werr, gerr)
		}
		if w := fmt.Sprintf("journal: encoding record %d (%s): %v", r.Seq, r.Kind, werr); gerr.Error() != w {
			t.Fatalf("AppendRecord error\n %v\nwant\n %s", gerr, w)
		}
		if string(got) != prefix {
			t.Fatalf("a failed AppendRecord returned %q, want the buffer it was given (%q)", got, prefix)
		}
		return
	}
	if string(got[:len(prefix)]) != prefix || string(got[len(prefix):]) != string(want) {
		t.Fatalf("AppendRecord wrote\n %s\njson.Marshal writes\n %s", got[len(prefix):], want)
	}
}

// TestAppendRecordMatchesMarshal runs the encoder over the sample records
// and over the edges of the format: escapes, nil against empty slices,
// float notation changes, zones, monotonic readings and the times and
// floats json.Marshal refuses.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	var cases []*Record
	for i, r := range sampleRecords() {
		r.Seq = int64(i + 1)
		cases = append(cases, r)
	}
	cases = append(cases, &Record{})
	for _, s := range []string{
		`<script>&"\` + "\n\r\t\b\f\x00\x1f\x7f",
		"\u2028 and \u2029", "\xff\xfe", "a\xc3", "\xed\xa0\x80", "\u00e9\u65e5\U0001f642", "\ufffd",
	} {
		cases = append(cases,
			&Record{Kind: Kind(s), AppID: s, Batch: []string{s, ""}},
			&Record{Kind: KindSubmit, App: &lra.Application{ID: s, Groups: []lra.ContainerGroup{{Name: s, Tags: []constraint.Tag{constraint.Tag(s)}}}}},
			&Record{Kind: KindCommitBatch, Breaker: &BreakerState{State: s}},
		)
	}
	// Nil against empty: omitempty drops both at the top level; below
	// it a nil slice is null and an empty one [].
	cases = append(cases,
		&Record{Kind: KindBeginBatch, Batch: []string{}, Assignments: []lra.Assignment{}},
		&Record{Kind: KindSubmit, App: &lra.Application{}},
		&Record{Kind: KindSubmit, App: &lra.Application{
			Groups:      []lra.ContainerGroup{{Tags: []constraint.Tag{}}, {}},
			Constraints: []constraint.Constraint{{Terms: [][]constraint.Atom{{}, nil}}, {Terms: [][]constraint.Atom{}}, {}},
		}},
		&Record{Kind: KindPlace, Assignments: []lra.Assignment{{Tags: []constraint.Tag{}}, {}}},
		&Record{Kind: KindCommitBatch, Breaker: &BreakerState{}},
		&Record{Seq: math.MaxInt64, Cycle: -1, Retries: math.MinInt64, Attempts: -7, Node: -2},
		&Record{Seq: math.MinInt64, Node: 1, Restored: nil, Evictions: nil},
	)
	for _, w := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e-9, 1.5e-300,
		5e-324, 123456789.125, 1e20, 9.999999999999999e20, 1e21, -1e21, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		cases = append(cases, &Record{Kind: KindSubmit, App: &lra.Application{ID: "w", Constraints: []constraint.Constraint{
			constraint.Weighted(constraint.AntiAffinity(constraint.Expr{"a"}, constraint.Expr{"b"}, constraint.Node), w),
		}}})
	}
	for _, at := range []time.Time{
		time.Unix(0, 1).UTC(),
		time.Unix(1_600_000_000, 120_000_000).UTC(),
		time.Unix(1_600_000_000, 0).In(time.FixedZone("IST", 5*3600+1800)),
		time.Unix(1_600_000_000, 0).In(time.FixedZone("", -(23*3600 + 59*60))),
		time.Unix(1_600_000_000, 0).In(time.FixedZone("", 3661)),
		time.Now(),
		time.Time{}.In(time.FixedZone("", 3600)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(1_600_000_000, 0).In(time.FixedZone("", 24*3600)),
		time.Unix(1_600_000_000, 0).In(time.FixedZone("", -100*3600)),
	} {
		cases = append(cases,
			&Record{Kind: KindRepairFail, At: at},
			&Record{Kind: KindBeginBatch, NextRun: at},
			&Record{Kind: KindRepairFail, NotBefore: at},
		)
	}
	for i, r := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkEncoding(t, r) })
	}
}

// fill sets every settable field under v to a non-zero value, numbering
// them with *n, and fails on a kind fill has no rule for: a field the
// encoder does not write then fails TestAppendRecordWritesEveryField
// instead of going unnoticed.
func fill(t *testing.T, v reflect.Value, path string, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(1_600_000_000+int64(*n), int64(*n)*1001).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(t, f, path+"."+v.Type().Field(i).Name, n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), path, n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("%s <&> %d", path, *n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("%s is a %s: teach AppendRecord to write it, then fill to set it", path, v.Kind())
	}
}

// TestAppendRecordWritesEveryField sets each field of Record, and of every
// type under it, to a non-zero value and compares the two encoders: once
// with everything set, and once per top-level field with only that one
// set, which exercises each omitempty rule on its own.
func TestAppendRecordWritesEveryField(t *testing.T) {
	n := 0
	var full Record
	fill(t, reflect.ValueOf(&full).Elem(), "Record", &n)
	checkEncoding(t, &full)
	rt := reflect.TypeOf(Record{})
	for i := 0; i < rt.NumField(); i++ {
		t.Run(rt.Field(i).Name, func(t *testing.T) {
			var r Record
			fill(t, reflect.ValueOf(&r).Elem().Field(i), rt.Field(i).Name, &n)
			checkEncoding(t, &r)
		})
	}
}

// fuzzRecord builds a record from fuzz inputs: shape's bits choose nil
// or empty slices and which optional parts are present.
func fuzzRecord(kind, s string, weight float64, sec, nsec int64, offset int, shape uint8) *Record {
	at := time.Unix(sec, nsec).In(time.FixedZone("", offset))
	r := &Record{Seq: sec, Kind: Kind(kind), At: at, AppID: s, Cycle: int(nsec), Retries: offset}
	var tags []constraint.Tag
	if shape&1 != 0 {
		tags = []constraint.Tag{}
	}
	if s != "" {
		tags = append(tags, constraint.Tag(s))
	}
	if shape&2 != 0 {
		r.Batch = []string{s, kind}
	}
	if shape&4 != 0 {
		atom := constraint.Atom{Subject: tags, Target: constraint.Expr{constraint.Tag(kind)}, Min: int(sec), Max: offset, Group: constraint.GroupName(s)}
		r.App = &lra.Application{
			ID:          s,
			Groups:      []lra.ContainerGroup{{Name: kind, Count: offset, Demand: resource.New(sec, nsec), Tags: tags}},
			Constraints: []constraint.Constraint{{Terms: [][]constraint.Atom{{atom}}, Weight: weight}},
		}
	}
	if shape&8 != 0 {
		r.Assignments = []lra.Assignment{{Container: "c#0", Group: s, Node: 3, Tags: tags}}
	}
	if shape&16 != 0 {
		r.NextRun, r.NotBefore = at.Add(time.Second), at.Add(-time.Nanosecond)
	}
	if shape&32 != 0 {
		r.Breaker = &BreakerState{State: s, Level: int(shape), Failures: -1}
	}
	return r
}

// fuzzSeed is one seed input of FuzzRecordEncoding; fails marks the ones
// json.Marshal refuses.
type fuzzSeed struct {
	kind, s     string
	weight      float64
	sec, nsec   int64
	offset      int
	shape       uint8
	fails       bool
	description string
}

var fuzzSeeds = []fuzzSeed{
	{kind: "place", s: "app-1", weight: 1, sec: 1_600_000_000, shape: 0xff, description: "plain"},
	{kind: "<>&", s: "a<b>&c", weight: 2.5, sec: 1, nsec: 5, shape: 0x3f, description: "HTML characters"},
	{kind: "\u2028", s: "\u2028x\u2029", weight: 1e-7, shape: 0x3f, description: "U+2028 and U+2029"},
	{kind: "\xff", s: "ok\xc3\x28\xff", weight: 1e21, offset: 3600, shape: 0x3f, description: "invalid UTF-8"},
	{kind: "submit", s: "", weight: 0, shape: 0x04, description: "nil tags"},
	{kind: "submit", s: "", weight: 0, shape: 0x05, description: "empty tags"},
	{kind: "submit", s: "nan", weight: math.NaN(), shape: 0x04, fails: true, description: "NaN weight"},
	{kind: "submit", s: "inf", weight: math.Inf(1), shape: 0x04, fails: true, description: "Inf weight"},
	{kind: "submit", s: "y10k", weight: 1, sec: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), fails: true, description: "year 10000"},
}

// TestFuzzSeedsFail pins that the seeds FuzzRecordEncoding marks as
// failing fail in both encoders, and that the others encode.
func TestFuzzSeedsFail(t *testing.T) {
	for _, sd := range fuzzSeeds {
		t.Run(sd.description, func(t *testing.T) {
			r := fuzzRecord(sd.kind, sd.s, sd.weight, sd.sec, sd.nsec, sd.offset, sd.shape)
			_, werr := json.Marshal(r)
			_, gerr := AppendRecord(nil, r)
			if (werr != nil) != sd.fails || (gerr != nil) != sd.fails {
				t.Fatalf("json.Marshal error %v, AppendRecord error %v; want failures: %v", werr, gerr, sd.fails)
			}
			checkEncoding(t, r)
		})
	}
}

// FuzzRecordEncoding holds AppendRecord to json.Marshal on records the
// fuzzer shapes: any strings, weights, times, zones and nil or empty
// slices.
func FuzzRecordEncoding(f *testing.F) {
	for _, sd := range fuzzSeeds {
		f.Add(sd.kind, sd.s, sd.weight, sd.sec, sd.nsec, sd.offset, sd.shape)
	}
	f.Fuzz(func(t *testing.T, kind, s string, weight float64, sec, nsec int64, offset int, shape uint8) {
		checkEncoding(t, fuzzRecord(kind, s, weight, sec, nsec, offset, shape))
	})
}
