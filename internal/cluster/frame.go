package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The driver↔executor wire is one frame per Request or Response:
//
//	magic "\xb5S" | version | payload length, 8 bytes LE | payload
//	payload: op | presence bitmap, 2 bytes LE | present fields
//
// A field is present unless zero, and present fields follow in declaration
// order, coded by internal/wire's bitmap mode: one field list (code) both
// writes and reads, and an accepted frame re-encodes to its own bytes. gob
// never starts a message with the magic's first byte, so a peer still on
// the gob wire this replaced fails at its first read instead of waiting
// for more bytes.
const (
	frameMagic      = "\xb5S"
	frameVersion    = 1
	frameHeader     = len(frameMagic) + 1 + 8
	maxFrame        = 1 << 33 // gob's own message bound on a 64-bit host
	frameChunk      = 4 << 10 // a payload read's first step (wire.ReadN)
	upgradeTogether = "drivers and sbgt-exec must be upgraded together"
)

func (req *Request) code(c *wire.Codec) *Op {
	c.Floats(&req.Risks)
	c.Word(&req.Lo)
	c.Word(&req.Hi)
	c.Word(&req.Pool)
	c.Floats(&req.Lik)
	wire.Each(c, &req.Cands, 1, c.Uvarint)
	c.Word(&req.Base)
	wire.Each(c, &req.Order, 1, c.Int)
	c.Float(&req.Factor)
	c.Floats(&req.Data)
	c.Str(&req.Trace)
	wire.Each(c, &req.BranchPools, 1, c.Uvarint)
	wire.Each(c, &req.BranchTables, 1, c.Floats)
	return &req.Op
}

func (resp *Response) code(c *wire.Codec) *Op {
	c.Str(&resp.Err)
	c.Float(&resp.Sum)
	c.Floats(&resp.Vec)
	wire.Each(c, &resp.Spans, 7, func(s *obs.SpanRecord) { // 7: five one-byte varints and two counts at least
		start, dur := s.Start.UnixNano(), int64(s.Duration)
		c.Uvarint(&s.TraceID)
		c.Uvarint(&s.ID)
		c.Uvarint(&s.ParentID)
		c.Str(&s.Name)
		c.Signed(&start)
		c.Signed(&dur)
		wire.Each(c, &s.Attrs, 2, func(a *obs.Attr) {
			value := fmt.Sprint(a.Value)
			c.Str(&a.Key)
			if c.Str(&value); c.Dec {
				a.Value = value
			}
		})
		if c.Dec {
			s.Start, s.Duration = time.Unix(0, start), time.Duration(dur)
		}
	})
	c.Floats(&resp.Data)
	return &resp.Op
}

// frameBuffers are a driver connection's read and write buffers. A closed
// connection hands them to the next one through spareBuffers: a cluster
// session dials once per cohort, and its rounds would otherwise regrow
// them to its largest frame every time. An executor's pair lives as long
// as the connection it serves.
type frameBuffers struct{ r, w []byte }

var spareBuffers = sync.Pool{New: func() any { return new(frameBuffers) }}

// writeRequest and writeResponse encode one frame into *buf, reused across
// rounds, and write it to w. readRequest and readResponse read one frame
// into *buf and decode it; the message's slices are its own.
func writeRequest(w io.Writer, buf *[]byte, req *Request) error {
	c := wire.Codec{B: append((*buf)[:0], make([]byte, frameHeader+3)...)}
	return send(w, buf, &c, *req.code(&c))
}

func writeResponse(w io.Writer, buf *[]byte, resp *Response) error {
	c := wire.Codec{B: append((*buf)[:0], make([]byte, frameHeader+3)...)}
	return send(w, buf, &c, *resp.code(&c))
}

func readRequest(r io.Reader, buf *[]byte, req *Request) error {
	c, op, err := readPayload(r, buf)
	if err != nil {
		return err
	}
	*req.code(&c) = op
	return c.Finish()
}

func readResponse(r io.Reader, buf *[]byte, resp *Response) error {
	c, op, err := readPayload(r, buf)
	if err != nil {
		return err
	}
	*resp.code(&c) = op
	return c.Finish()
}

// send fills in the header, op and bitmap in front of the coded fields and
// writes the frame.
func send(w io.Writer, buf *[]byte, c *wire.Codec, op Op) error {
	n := len(c.B) - frameHeader
	if n >= maxFrame {
		return fmt.Errorf("frame of %d bytes exceeds the %d-byte bound", n, maxFrame)
	}
	c.B[copy(c.B, frameMagic)] = frameVersion
	binary.LittleEndian.PutUint64(c.B[len(frameMagic)+1:], uint64(n))
	c.B[frameHeader] = byte(op)
	binary.LittleEndian.PutUint16(c.B[frameHeader+1:], c.Mask)
	*buf = c.B
	_, err := w.Write(c.B)
	return err
}

// readPayload reads one frame's payload into *buf as it arrives, so a
// length that lies cannot allocate much more than was sent, and returns a
// codec reading its fields and the frame's op.
func readPayload(r io.Reader, buf *[]byte) (wire.Codec, Op, error) {
	h := slices.Grow((*buf)[:0], frameHeader)[:frameHeader] // the payload reuses it
	if _, err := io.ReadFull(r, h); err != nil {
		return wire.Codec{}, 0, err
	}
	n := binary.LittleEndian.Uint64(h[len(frameMagic)+1:])
	switch {
	case string(h[:len(frameMagic)]) != frameMagic:
		return wire.Codec{}, 0, fmt.Errorf("not a cluster frame (starts % x): %s", h[:len(frameMagic)], upgradeTogether)
	case h[len(frameMagic)] != frameVersion:
		return wire.Codec{}, 0, fmt.Errorf("frame version %d, this build speaks %d: %s", h[len(frameMagic)], frameVersion, upgradeTogether)
	case n < 3 || n >= maxFrame:
		return wire.Codec{}, 0, fmt.Errorf("frame length %d outside [3, %d)", n, uint64(maxFrame))
	}
	p, err := wire.ReadN(r, h, n, frameChunk)
	*buf = p
	if err != nil {
		return wire.Codec{}, 0, err
	}
	return wire.Codec{Dec: true, B: p[3:], Mask: binary.LittleEndian.Uint16(p[1:])}, Op(p[0]), nil
}
