// Package binenc holds the little-endian primitives of SnapTask's binary
// model snapshot: append helpers for the writer and a bounds-checked Reader
// for the loader. Bulk records are stored column by column (Columns), each
// field as a fixed-width little-endian value.
//
// A Reader never allocates or slices beyond the bytes it was given: every
// count is checked against the bytes that remain before a caller sizes
// anything by it, and the first failure sticks, so a decoder reads straight
// through and checks Err once.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var le = binary.LittleEndian

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(b []byte, v uint64) []byte { return le.AppendUint64(b, v) }

// AppendF64 appends the IEEE-754 bits of v as 8 little-endian bytes.
func AppendF64(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }

// AppendSection appends the bytes fn appends, prefixed by their length as
// a U64. fn appends in place, so a section costs no copy.
func AppendSection(b []byte, fn func([]byte) ([]byte, error)) ([]byte, error) {
	at := len(b)
	b, err := fn(AppendU64(b, 0))
	if err != nil {
		return nil, err
	}
	le.PutUint64(b[at:], uint64(len(b)-at-8))
	return b, nil
}

// ErrShort reports a length or count that runs past the end of the input.
var ErrShort = errors.New("binenc: length exceeds remaining bytes")

// Reader decodes from a byte slice with a sticky error: after the first
// failure every method returns a zero value.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) }

// Fail records err as the reader's failure unless one is already set.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// next consumes n bytes, or fails when fewer remain.
func (r *Reader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.Fail(fmt.Errorf("%w: need %d, have %d", ErrShort, n, len(r.b)))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() uint64 {
	p := r.next(8)
	if p == nil {
		return 0
	}
	return le.Uint64(p)
}

// F64 reads a float64 written by AppendF64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Int reads a U64 as a two's-complement int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// Uvarint reads an unsigned varint in its shortest encoding, the one
// binary.AppendUvarint writes; a longer one (a trailing zero byte) fails,
// so every value has one encoding. A one-byte value, the common case of
// the snapshot's deltas and counts, takes a short path.
func (r *Reader) Uvarint() uint64 {
	if r.err == nil && len(r.b) > 0 && r.b[0] < 0x80 {
		v := uint64(r.b[0])
		r.b = r.b[1:]
		return v
	}
	return r.uvarint()
}

func (r *Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail(fmt.Errorf("%w: bad uvarint", ErrShort))
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.Fail(fmt.Errorf("binenc: uvarint %d not in its shortest encoding", v))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads a U64 element count and checks that count elements of at
// least minWidth bytes each fit in the remaining input, so the caller may
// allocate by it. It returns 0 on failure.
func (r *Reader) Count(minWidth int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/max(minWidth, 1)) {
		r.Fail(fmt.Errorf("%w: %d elements of %d bytes, %d bytes left", ErrShort, n, minWidth, len(r.b)))
		return 0
	}
	return int(n)
}

// Section reads a section written by AppendSection. The result aliases
// the reader's input.
func (r *Reader) Section() []byte { return r.Column(r.Count(1), 1) }

// Column reads n fixed-width values of width bytes each and returns their
// raw bytes, aliasing the reader's input.
func (r *Reader) Column(n, width int) []byte {
	if n < 0 || width <= 0 || n > len(r.b)/width {
		r.Fail(fmt.Errorf("%w: column of %d×%d bytes, %d left", ErrShort, n, width, len(r.b)))
		return nil
	}
	return r.next(n * width)
}

// F64s reads n float64 values written by consecutive AppendF64 calls into
// a new slice.
func (r *Reader) F64s(n int) []float64 {
	col := r.Column(n, 8)
	if col == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(le.Uint64(col[8*i:]))
	}
	return out
}

// Columns describes the fixed-width fields of a record type T stored
// column by column: all values of the first field, then of the next, in
// the order listed (Ints, then Uints, then Floats, then Bools). Ints are
// stored as int64, floats by their IEEE-754 bits, bools as one byte. One
// table drives both Append and Read, so the two cannot drift apart.
type Columns[T any] struct {
	Ints   []func(*T) *int
	Uints  []func(*T) *uint64
	Floats []func(*T) *float64
	Bools  []func(*T) *bool
}

// width is the encoded size of one record.
func (c Columns[T]) width() int {
	return 8*(len(c.Ints)+len(c.Uints)+len(c.Floats)) + len(c.Bools)
}

// Append appends the record count and then every column of xs.
func (c Columns[T]) Append(b []byte, xs []T) []byte {
	b = AppendU64(b, uint64(len(xs)))
	for _, f := range c.Ints {
		for i := range xs {
			b = le.AppendUint64(b, uint64(*f(&xs[i])))
		}
	}
	for _, f := range c.Uints {
		for i := range xs {
			b = le.AppendUint64(b, *f(&xs[i]))
		}
	}
	for _, f := range c.Floats {
		for i := range xs {
			b = le.AppendUint64(b, math.Float64bits(*f(&xs[i])))
		}
	}
	for _, f := range c.Bools {
		for i := range xs {
			var v byte
			if *f(&xs[i]) {
				v = 1
			}
			b = append(b, v)
		}
	}
	return b
}

// Read decodes records written by Append. The count is checked against
// the remaining input before anything is allocated.
func (c Columns[T]) Read(r *Reader) []T {
	w := c.width()
	n := r.Count(w)
	col := r.Column(n, w)
	if col == nil {
		return nil
	}
	xs := make([]T, n)
	for _, f := range c.Ints {
		for i := range xs {
			*f(&xs[i]) = int(int64(le.Uint64(col[8*i:])))
		}
		col = col[8*n:]
	}
	for _, f := range c.Uints {
		for i := range xs {
			*f(&xs[i]) = le.Uint64(col[8*i:])
		}
		col = col[8*n:]
	}
	for _, f := range c.Floats {
		for i := range xs {
			*f(&xs[i]) = math.Float64frombits(le.Uint64(col[8*i:]))
		}
		col = col[8*n:]
	}
	for _, f := range c.Bools {
		for i := range xs {
			switch col[i] {
			case 0:
			case 1:
				*f(&xs[i]) = true
			default:
				r.Fail(fmt.Errorf("binenc: bool byte %d", col[i]))
				return nil
			}
		}
		col = col[n:]
	}
	return xs
}
