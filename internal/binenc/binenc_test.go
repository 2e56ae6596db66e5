package binenc

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

type rec struct {
	N int
	U uint64
	F float64
	B bool
}

var recCols = Columns[rec]{
	Ints:   []func(*rec) *int{func(r *rec) *int { return &r.N }},
	Uints:  []func(*rec) *uint64{func(r *rec) *uint64 { return &r.U }},
	Floats: []func(*rec) *float64{func(r *rec) *float64 { return &r.F }},
	Bools:  []func(*rec) *bool{func(r *rec) *bool { return &r.B }},
}

func TestColumnsRoundTrip(t *testing.T) {
	in := []rec{
		{N: -3, U: math.MaxUint64, F: math.Copysign(0, -1), B: true},
		{N: math.MaxInt64, U: 7, F: math.Inf(1)},
		{N: math.MinInt64, F: 0.1},
	}
	b := recCols.Append(nil, in)
	if want := 8 + len(in)*25; len(b) != want {
		t.Fatalf("encoded %d bytes, want %d", len(b), want)
	}
	r := NewReader(b)
	out := recCols.Read(r)
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Remaining())
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
	if !math.Signbit(out[0].F) {
		t.Error("negative zero lost its sign")
	}
}

func TestSectionRoundTrip(t *testing.T) {
	b, err := AppendSection([]byte{9}, func(b []byte) ([]byte, error) { return append(b, "abc"...), nil })
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(b[1:])
	if got := string(r.Section()); got != "abc" || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("section %q, err %v, %d left", got, r.Err(), r.Remaining())
	}
}

// TestReaderRejectsOversizedLengths checks that counts and lengths larger
// than the remaining input fail before anything is sized by them, and
// that the first failure sticks.
func TestReaderRejectsOversizedLengths(t *testing.T) {
	huge := AppendU64(nil, 1<<62)
	for name, read := range map[string]func(*Reader){
		"count":   func(r *Reader) { r.Count(1) },
		"section": func(r *Reader) { r.Section() },
		"columns": func(r *Reader) { recCols.Read(r) },
		"column":  func(r *Reader) { r.Column(1<<40, 8) },
		"floats":  func(r *Reader) { r.F64s(1 << 40) },
	} {
		r := NewReader(huge)
		read(r)
		if !errors.Is(r.Err(), ErrShort) {
			t.Errorf("%s: err = %v, want ErrShort", name, r.Err())
		}
		if r.U64() != 0 || r.Err() == nil {
			t.Errorf("%s: reader kept reading after a failure", name)
		}
	}
	bad := NewReader([]byte{0x80})
	bad.Uvarint()
	if !errors.Is(bad.Err(), ErrShort) {
		t.Errorf("truncated uvarint: err = %v", bad.Err())
	}
	for _, long := range [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}} {
		if r := NewReader(long); r.Uvarint() != 0 || r.Err() == nil {
			t.Errorf("uvarint % x longer than its shortest encoding accepted", long)
		}
	}
	if r := NewReader([]byte{0x80, 0x01}); r.Uvarint() != 128 || r.Err() != nil {
		t.Errorf("uvarint 128: err = %v", r.Err())
	}
	b := recCols.Append(nil, []rec{{B: true}})
	b[len(b)-1] = 2
	if r := NewReader(b); recCols.Read(r) != nil || r.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
}
