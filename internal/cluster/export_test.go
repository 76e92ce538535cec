package cluster

import "io"

// Frame helpers for tests that play one side of the wire by hand: each
// reads or writes exactly one frame, as a driver's conn or an executor's
// handle does.

func WriteRequest(w io.Writer, req Request) error { return writeRequest(w, new([]byte), &req) }

func WriteResponse(w io.Writer, resp Response) error { return writeResponse(w, new([]byte), &resp) }

func ReadRequest(r io.Reader) (req Request, err error) {
	return req, readRequest(r, new([]byte), &req)
}

func ReadResponse(r io.Reader) (resp Response, err error) {
	return resp, readResponse(r, new([]byte), &resp)
}
