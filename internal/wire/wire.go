// Package wire is the repository's one binary field codec. The cluster's
// driver↔executor frame (internal/cluster) and the session checkpoint's
// header (internal/core) both code their messages with it.
//
// A message is one field list that both writes and reads: each field is a
// call on a Codec, which appends the field to B when writing and takes it
// from the front of B when reading (Dec). Integers go as uvarints (signed
// ones zigzag), floats as their 8 little-endian bytes, a slice or string
// as its count and then its elements. In bitmap mode (the cluster frame)
// a scalar, string or slice is written only when it is set, and Mask
// records which, one bit a field in field order; inside a slice's element,
// and everywhere in a Codec made with All (a fixed record: the checkpoint
// header), every field is there, zero or not, with no bit. The reader
// takes only what the writer makes — no zero present field, unknown bit,
// non-minimal varint, count past the bytes left or trailing byte — so an
// accepted message re-encodes to its own bytes. The first failure sticks,
// and later reads yield zeros.
package wire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Codec writes fields to B, never storing into the message it reads them
// from (the cluster's fan-out shares a request's slices), or reads them
// from B when Dec is set.
type Codec struct {
	Dec  bool   // read fields from B instead of appending them
	All  bool   // every field is present, zero or not (a fixed record, or a slice's element)
	B    []byte // written: the message so far; read: what is left of it
	Mask uint16 // bitmap mode: the fields present
	Err  error  // the first failure
	bit  uint
}

// present reports whether the next field is on the wire: written when set,
// read when the bitmap says so.
func (c *Codec) present(set bool) bool {
	if c.All {
		return true
	}
	bit := uint16(1) << c.bit
	c.bit++
	if c.Dec {
		return c.Err == nil && c.Mask&bit != 0
	}
	if set {
		c.Mask |= bit
	}
	return set
}

// Fail records a failure, unless one is already recorded, and drops what
// is left to read.
func (c *Codec) Fail(format string, args ...any) {
	c.Err, c.B = cmp.Or(c.Err, fmt.Errorf(format, args...)), nil
}

// Uvarint, Signed, Int, Bool and Fixed code a value with no presence bit:
// the parts of a slice's element and the fields of a fixed record.
func (c *Codec) Uvarint(v *uint64) {
	if !c.Dec {
		c.B = binary.AppendUvarint(c.B, *v)
	} else if x, n := binary.Uvarint(c.B); n <= 0 || n > 1 && c.B[n-1] == 0 {
		c.Fail("malformed or non-minimal varint")
	} else {
		*v, c.B = x, c.B[n:]
	}
}

func (c *Codec) Signed(v *int64) {
	u := uint64(*v<<1) ^ uint64(*v>>63)
	if c.Uvarint(&u); c.Dec {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *Codec) Int(v *int) {
	x := int64(*v)
	if c.Signed(&x); int64(int(x)) != x {
		c.Fail("integer %d overflows int", x)
	} else if c.Dec {
		*v = int(x)
	}
}

// Bool is one uvarint, 0 or 1; read, any other value fails.
func (c *Codec) Bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	if c.Uvarint(&x); c.Dec && x > 1 {
		c.Fail("flag %d is neither 0 nor 1", x)
	} else if c.Dec {
		*v = x == 1
	}
}

func (c *Codec) Fixed(v *uint64) {
	if !c.Dec {
		c.B = binary.LittleEndian.AppendUint64(c.B, *v)
	} else if len(c.B) < 8 {
		c.Fail("8 bytes past the message's end")
	} else {
		*v, c.B = binary.LittleEndian.Uint64(c.B), c.B[8:]
	}
}

// Word and Float code a scalar, which in bitmap mode is present unless
// zero.
func (c *Codec) Word(v *uint64) {
	if c.present(*v != 0) {
		if c.Uvarint(v); c.Dec && !c.All && *v == 0 {
			c.Fail("present field is zero")
		}
	}
}

func (c *Codec) Float(f *float64) {
	if bits := math.Float64bits(*f); c.present(bits != 0) {
		if c.Fixed(&bits); c.Dec && !c.All && bits == 0 {
			c.Fail("present field is zero")
		} else if c.Dec {
			*f = math.Float64frombits(bits)
		}
	}
}

// count codes a slice's length: read, it must fit the bytes left at size
// bytes an element, and a slice the bitmap marks present cannot be empty.
func (c *Codec) count(n, size int) int {
	v := uint64(n)
	if c.Uvarint(&v); c.Dec && (v > uint64(len(c.B)/size) || v == 0 && !c.All) {
		c.Fail("count %d does not fit %d bytes", v, len(c.B))
		return 0
	}
	return int(v)
}

func (c *Codec) Str(s *string) {
	if !c.present(*s != "") {
		return
	}
	if n := c.count(len(*s), 1); c.Dec {
		*s, c.B = string(c.B[:n]), c.B[n:]
	} else {
		c.B = append(c.B, *s...)
	}
}

// Floats is Each for a float vector, coded in one loop over the counted
// span: the bytes a Fixed call per element would make.
func (c *Codec) Floats(v *[]float64) {
	if !c.present(len(*v) > 0) {
		return
	}
	n := c.count(len(*v), 8)
	if !c.Dec {
		off := len(c.B)
		c.B = slices.Grow(c.B, 8*n)[:off+8*n]
		dst := c.B[off:]
		for i, f := range *v {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(f))
		}
		return
	}
	if n > 0 || !c.All {
		*v = make([]float64, n)
	}
	src := c.B[:8*n] // count checked that the span is there
	for i := range n {
		(*v)[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	c.B = c.B[8*n:]
}

// Each codes a present slice: its count, then every element with code,
// each at least size bytes. Read, the slice is made; empty in a fixed
// record or inside an element, it stays nil.
func Each[T any](c *Codec, v *[]T, size int, code func(*T)) {
	if !c.present(len(*v) > 0) {
		return
	}
	if n := c.count(len(*v), size); c.Dec && (n > 0 || !c.All) {
		*v = make([]T, n)
	}
	all := c.All
	c.All = true
	for i := range *v {
		code(&(*v)[i])
	}
	c.All = all
}

// Finish reports the first failure, or refuses what no writer makes: a
// bitmap bit past the fields read, or bytes after them.
func (c *Codec) Finish() error {
	switch {
	case c.Err != nil:
		return c.Err
	case c.Mask>>c.bit != 0:
		return fmt.Errorf("unknown fields in bitmap %#04x", c.Mask)
	case len(c.B) > 0:
		return fmt.Errorf("%d trailing bytes", len(c.B))
	}
	return nil
}

// ReadN reads n bytes from r into buf's storage as they arrive: the first
// step is first bytes, and each later one at most doubles what has
// arrived, so a length that lies commits little more than was sent. It
// returns what arrived, on failure too (an EOF short of n is
// io.ErrUnexpectedEOF), so a caller can keep the storage for its next
// read.
func ReadN(r io.Reader, buf []byte, n uint64, first int) ([]byte, error) {
	p := buf[:0]
	for uint64(len(p)) < n {
		step := int(min(n-uint64(len(p)), uint64(max(len(p), first))))
		p = slices.Grow(p, step)
		got, err := io.ReadFull(r, p[len(p):len(p)+step])
		p = p[:len(p)+got]
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return p, err
		}
	}
	return p, nil
}
