package main

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/litterbox-project/enclosure/internal/simnet"
)

// expect is what a response body must be: exactly body when body is
// non-nil (and Content-Length must match it), otherwise a chunked body
// of exactly chunkedLen bytes.
type expect struct {
	body       []byte
	chunkedLen int
}

// client is the benchmark's HTTP client: it drains a response into one
// reused buffer and checks the status line, the framing header and the
// exact body. Its cost is the harness's, reported as client.* and kept
// out of the system's own layers.
type client struct {
	buf []byte
}

var (
	statusOK      = []byte("HTTP/1.1 200 OK\r\n")
	headerEnd     = []byte("\r\n\r\n")
	contentLength = []byte("\r\nContent-Length: ")
	chunked       = []byte("\r\nTransfer-Encoding: chunked\r\n")
)

// check reads the whole response (the server shuts the connection
// down when done) and validates it against want. It returns the bytes
// read.
func (c *client) check(conn *simnet.Conn, want expect) (int, error) {
	n := 0
	for {
		if n == len(c.buf) {
			c.buf = append(c.buf, make([]byte, 16*1024)...)
		}
		m, err := conn.Read(c.buf[n:])
		n += m
		if errors.Is(err, simnet.ErrClosed) {
			break
		}
		if err != nil {
			return n, fmt.Errorf("read: %w", err)
		}
	}
	resp := c.buf[:n]
	if !bytes.HasPrefix(resp, statusOK) {
		return n, fmt.Errorf("bad status line: %.40q", resp)
	}
	end := bytes.Index(resp, headerEnd)
	if end < 0 {
		return n, errors.New("unterminated header")
	}
	hdr, body := resp[:end+2], resp[end+len(headerEnd):]
	if want.body == nil {
		if !bytes.Contains(hdr, chunked) || len(body) != want.chunkedLen {
			return n, fmt.Errorf("chunked body: %d bytes, want %d", len(body), want.chunkedLen)
		}
		return n, nil
	}
	if cl, ok := headerInt(hdr, contentLength); !ok || cl != len(want.body) {
		return n, fmt.Errorf("Content-Length %d, want %d", cl, len(want.body))
	}
	if !bytes.Equal(body, want.body) {
		return n, fmt.Errorf("body mismatch: %d bytes, want %d", len(body), len(want.body))
	}
	return n, nil
}

// headerInt parses the decimal value following key in hdr.
func headerInt(hdr, key []byte) (int, bool) {
	i := bytes.Index(hdr, key)
	if i < 0 {
		return 0, false
	}
	v, digits := 0, 0
	for _, b := range hdr[i+len(key):] {
		if b < '0' || b > '9' {
			break
		}
		v = v*10 + int(b-'0')
		digits++
	}
	return v, digits > 0
}
