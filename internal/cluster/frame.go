package cluster

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
)

// The driver↔executor wire is one frame per Request or Response:
//
//	magic "\xb5S" | version | payload length, 8 bytes LE | payload
//	payload: op | presence bitmap, 2 bytes LE | present fields
//
// A field is present unless zero, and present fields follow in declaration
// order: integers as uvarints (signed ones zigzag), floats as their 8
// little-endian bytes, a slice or string as its count and then its
// elements. One field list (code) both writes and reads, and the reader
// takes only what the writer makes — no zero present field, unknown bit,
// non-minimal varint, count past the bytes left or trailing byte — so an
// accepted frame re-encodes to its own bytes. gob never starts a message
// with the magic's first byte, so a peer still on the gob wire this
// replaced fails at its first read instead of waiting for more bytes.
const (
	frameMagic      = "\xb5S"
	frameVersion    = 1
	frameHeader     = len(frameMagic) + 1 + 8
	maxFrame        = 1 << 33 // gob's own message bound on a 64-bit host
	frameChunk      = 4 << 10 // a payload read's first step; each later one at most doubles what arrived
	upgradeTogether = "drivers and sbgt-exec must be upgraded together"
)

// codec writes fields to b, never storing into the message it reads them
// from (the fan-out shares a request's slices), or reads them from b when
// dec is set; the first failure sticks, and later reads yield zeros.
// Inside a slice's element (all) every part is there, zero or not, with no
// presence bit.
type codec struct {
	dec, all bool
	b        []byte
	op       Op
	mask     uint16
	bit      uint
	err      error
}

// present reports whether the next field is on the wire: written when set,
// read when the bitmap says so.
func (c *codec) present(set bool) bool {
	if c.all {
		return true
	}
	bit := uint16(1) << c.bit
	c.bit++
	if c.dec {
		return c.err == nil && c.mask&bit != 0
	}
	if set {
		c.mask |= bit
	}
	return set
}

func (c *codec) fail(format string, args ...any) {
	c.err, c.b = cmp.Or(c.err, fmt.Errorf(format, args...)), nil
}

func (c *codec) uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
	} else if x, n := binary.Uvarint(c.b); n <= 0 || n > 1 && c.b[n-1] == 0 {
		c.fail("malformed or non-minimal varint")
	} else {
		*v, c.b = x, c.b[n:]
	}
}

func (c *codec) signed(v *int64) {
	u := uint64(*v<<1) ^ uint64(*v>>63)
	if c.uvarint(&u); c.dec {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *codec) fixed(v *uint64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	} else if len(c.b) < 8 {
		c.fail("8 bytes past the payload's end")
	} else {
		*v, c.b = binary.LittleEndian.Uint64(c.b), c.b[8:]
	}
}

// word and float code a scalar, which is present unless zero.
func (c *codec) word(v *uint64) {
	if c.present(*v != 0) {
		if c.uvarint(v); c.dec && *v == 0 {
			c.fail("present field is zero")
		}
	}
}

func (c *codec) float(f *float64) {
	if bits := math.Float64bits(*f); c.present(bits != 0) {
		if c.fixed(&bits); c.dec && bits == 0 {
			c.fail("present field is zero")
		} else if c.dec {
			*f = math.Float64frombits(bits)
		}
	}
}

// count codes a slice's length: read, it must fit the bytes left at size
// bytes an element, and a slice the bitmap marks present cannot be empty.
func (c *codec) count(n, size int) int {
	v := uint64(n)
	if c.uvarint(&v); c.dec && (v > uint64(len(c.b)/size) || v == 0 && !c.all) {
		c.fail("count %d does not fit %d bytes", v, len(c.b))
		return 0
	}
	return int(v)
}

func (c *codec) str(s *string) {
	if !c.present(*s != "") {
		return
	}
	if n := c.count(len(*s), 1); c.dec {
		*s, c.b = string(c.b[:n]), c.b[n:]
	} else {
		c.b = append(c.b, *s...)
	}
}

// floats is each for a float vector, without a call per element.
func (c *codec) floats(v *[]float64) {
	if !c.present(len(*v) > 0) {
		return
	}
	if n := c.count(len(*v), 8); !c.dec {
		c.b = slices.Grow(c.b, 8*n)
	} else if n > 0 || !c.all {
		*v = make([]float64, n)
	}
	for i := range *v {
		bits := math.Float64bits((*v)[i])
		if c.fixed(&bits); c.dec {
			(*v)[i] = math.Float64frombits(bits)
		}
	}
}

// each codes a present slice: its count, then every element with code,
// each at least size bytes. Read, the slice is made; empty inside an
// element, it stays nil.
func each[T any](c *codec, v *[]T, size int, code func(*T)) {
	if !c.present(len(*v) > 0) {
		return
	}
	if n := c.count(len(*v), size); c.dec && (n > 0 || !c.all) {
		*v = make([]T, n)
	}
	all := c.all
	c.all = true
	for i := range *v {
		code(&(*v)[i])
	}
	c.all = all
}

func (req *Request) code(c *codec) *Op {
	c.floats(&req.Risks)
	c.word(&req.Lo)
	c.word(&req.Hi)
	c.word(&req.Pool)
	c.floats(&req.Lik)
	each(c, &req.Cands, 1, c.uvarint)
	c.word(&req.Base)
	each(c, &req.Order, 1, func(o *int) {
		v := int64(*o)
		if c.signed(&v); int64(int(v)) != v {
			c.fail("order entry %d overflows int", v)
		} else if c.dec {
			*o = int(v)
		}
	})
	c.float(&req.Factor)
	c.floats(&req.Data)
	c.str(&req.Trace)
	each(c, &req.BranchPools, 1, c.uvarint)
	each(c, &req.BranchTables, 1, c.floats)
	return &req.Op
}

func (resp *Response) code(c *codec) *Op {
	c.str(&resp.Err)
	c.float(&resp.Sum)
	c.floats(&resp.Vec)
	each(c, &resp.Spans, 7, func(s *obs.SpanRecord) { // 7: five one-byte varints and two counts at least
		start, dur := s.Start.UnixNano(), int64(s.Duration)
		c.uvarint(&s.TraceID)
		c.uvarint(&s.ID)
		c.uvarint(&s.ParentID)
		c.str(&s.Name)
		c.signed(&start)
		c.signed(&dur)
		each(c, &s.Attrs, 2, func(a *obs.Attr) {
			value := fmt.Sprint(a.Value)
			c.str(&a.Key)
			if c.str(&value); c.dec {
				a.Value = value
			}
		})
		if c.dec {
			s.Start, s.Duration = time.Unix(0, start), time.Duration(dur)
		}
	})
	c.floats(&resp.Data)
	return &resp.Op
}

// writeRequest and writeResponse encode one frame into *buf, reused across
// rounds, and write it to w. readRequest and readResponse read one frame
// into *buf and decode it; the message's slices are its own.
func writeRequest(w io.Writer, buf *[]byte, req *Request) error {
	c := codec{b: append((*buf)[:0], make([]byte, frameHeader+3)...)}
	return c.send(w, buf, req.code(&c))
}

func writeResponse(w io.Writer, buf *[]byte, resp *Response) error {
	c := codec{b: append((*buf)[:0], make([]byte, frameHeader+3)...)}
	return c.send(w, buf, resp.code(&c))
}

func readRequest(r io.Reader, buf *[]byte, req *Request) error {
	c := readPayload(r, buf)
	return c.finish(req.code(&c))
}

func readResponse(r io.Reader, buf *[]byte, resp *Response) error {
	c := readPayload(r, buf)
	return c.finish(resp.code(&c))
}

// send fills in the header, op and bitmap in front of the coded fields and
// writes the frame.
func (c *codec) send(w io.Writer, buf *[]byte, op *Op) error {
	n := len(c.b) - frameHeader
	if n >= maxFrame {
		return fmt.Errorf("frame of %d bytes exceeds the %d-byte bound", n, maxFrame)
	}
	c.b[copy(c.b, frameMagic)] = frameVersion
	binary.LittleEndian.PutUint64(c.b[len(frameMagic)+1:], uint64(n))
	c.b[frameHeader] = byte(*op)
	binary.LittleEndian.PutUint16(c.b[frameHeader+1:], c.mask)
	*buf = c.b
	_, err := w.Write(c.b)
	return err
}

// readPayload reads one frame's payload into *buf as it arrives, so a
// length that lies cannot allocate much more than was sent, and returns a
// codec reading its fields, or holding the failure.
func readPayload(r io.Reader, buf *[]byte) codec {
	h := slices.Grow((*buf)[:0], frameHeader)[:frameHeader] // the payload reuses it
	if _, err := io.ReadFull(r, h); err != nil {
		return codec{dec: true, err: err}
	}
	n := binary.LittleEndian.Uint64(h[len(frameMagic)+1:])
	switch {
	case string(h[:len(frameMagic)]) != frameMagic:
		return codec{dec: true, err: fmt.Errorf("not a cluster frame (starts % x): %s", h[:len(frameMagic)], upgradeTogether)}
	case h[len(frameMagic)] != frameVersion:
		return codec{dec: true, err: fmt.Errorf("frame version %d, this build speaks %d: %s", h[len(frameMagic)], frameVersion, upgradeTogether)}
	case n < 3 || n >= maxFrame:
		return codec{dec: true, err: fmt.Errorf("frame length %d outside [3, %d)", n, uint64(maxFrame))}
	}
	p := h[:0]
	for uint64(len(p)) < n {
		step := int(min(n-uint64(len(p)), uint64(max(len(p), frameChunk))))
		p = slices.Grow(p, step)
		got, err := io.ReadFull(r, p[len(p):len(p)+step])
		p = p[:len(p)+got]
		*buf = p
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return codec{dec: true, err: err}
		}
	}
	return codec{dec: true, b: p[3:], op: Op(p[0]), mask: binary.LittleEndian.Uint16(p[1:])}
}

// finish gives the decoded message its op and refuses what no writer makes.
func (c *codec) finish(op *Op) error {
	*op = c.op
	switch {
	case c.err != nil:
		return c.err
	case c.mask>>c.bit != 0:
		return fmt.Errorf("unknown fields in bitmap %#04x", c.mask)
	case len(c.b) > 0:
		return fmt.Errorf("%d trailing bytes", len(c.b))
	}
	return nil
}
