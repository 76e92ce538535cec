package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// record is a fixed record of every kind of field, coded by one list.
type record struct {
	U     uint64
	I     int
	B     bool
	F     float64
	S     string
	Fs    []float64
	Pairs []pair
}

type pair struct {
	K int
	V float64
}

func (r *record) code(c *Codec) {
	c.Word(&r.U)
	c.Int(&r.I)
	c.Bool(&r.B)
	c.Float(&r.F)
	c.Str(&r.S)
	c.Floats(&r.Fs)
	Each(c, &r.Pairs, 9, func(p *pair) {
		c.Int(&p.K)
		c.Float(&p.V)
	})
}

func encode(r *record) []byte {
	c := Codec{All: true}
	r.code(&c)
	return c.B
}

func decode(b []byte) (*record, error) {
	r := new(record)
	c := Codec{Dec: true, All: true, B: b}
	r.code(&c)
	return r, c.Finish()
}

// TestFixedRecordRoundTrip: a fixed record reads back as written, zero
// fields included, and re-encodes to its own bytes.
func TestFixedRecordRoundTrip(t *testing.T) {
	for _, want := range []*record{
		{},
		{U: 300, I: -7, B: true, F: -0.25, S: "dense", Fs: []float64{1, 0, 2.5}, Pairs: []pair{{3, 0.5}, {-1, 0}}},
	} {
		raw := encode(want)
		got, err := decode(raw)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("read %+v, %v; want %+v", got, err, want)
		}
		if again := encode(got); !bytes.Equal(again, raw) {
			t.Fatalf("re-encodes to %x, not %x", again, raw)
		}
	}
}

// TestFixedRecordRefusals: what no writer makes is refused — a flag past
// 1, a non-minimal varint, a count past the bytes left, a trailing byte.
func TestFixedRecordRefusals(t *testing.T) {
	raw := encode(&record{U: 1, B: true})
	// raw: U=1 | I=0 | B=1 | F (8 bytes) | S count 0 | Fs count 0 | Pairs count 0
	for name, b := range map[string][]byte{
		"flag 2":             append([]byte{1, 0, 2}, raw[3:]...),
		"non-minimal varint": append([]byte{0x81, 0}, raw[1:]...),
		"count past the end": append(raw[:len(raw)-1], 5),
		"trailing byte":      append(append([]byte(nil), raw...), 0),
		"cut short":          raw[:6],
	} {
		if _, err := decode(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadNGrowsWithArrival: a length that lies fails on the short read
// with storage near what arrived, not near what was claimed; an honest
// one reads exactly its bytes.
func TestReadNGrowsWithArrival(t *testing.T) {
	body := bytes.Repeat([]byte{7}, 10_000)
	p, err := ReadN(bytes.NewReader(body), nil, 1<<40, 1024)
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(p) != len(body) || cap(p) > 4*len(body) {
		t.Fatalf("lying length: %d bytes in a %d-byte buffer, %v", len(p), cap(p), err)
	}
	p, err = ReadN(bytes.NewReader(body), p, 4096, 1024)
	if err != nil || !bytes.Equal(p, body[:4096]) {
		t.Fatalf("honest length: %d bytes, %v", len(p), err)
	}
}
