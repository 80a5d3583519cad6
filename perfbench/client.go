package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// conn is one client keep-alive HTTP/1.1 connection: a closed loop
// sends the next request only after the previous answer is read. The
// calling goroutine writes each request and reads its answer itself,
// and a GET allocates nothing. net/http's client hands every exchange
// to two goroutines of its own and allocates a request and a response
// per call; in this process that work shares the two CPUs with the
// server under test, and the read tail measured it.
type conn struct {
	addr string
	tr   *tracer
	nc   net.Conn
	br   *bufio.Reader
	req  []byte // request scratch
	body []byte // last response body, valid until the next call
}

var reqIDs atomic.Int64

func newConn(addr string, tr *tracer) *conn {
	return &conn{addr: addr, tr: tr}
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// do sends one request and returns the status and body (valid until
// the next call on c). The span covers the whole client-observed
// exchange; the server's handler span joins it through the headers.
// Any error closes the connection; the next call dials again.
func (c *conn) do(method, path string, body []byte, span string) (int, []byte, error) {
	id := -1
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if body != nil {
		c.req = append(c.req, "Content-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
		c.req = append(c.req, "\r\n"...)
	}
	if c.tr != nil {
		rid := reqIDs.Add(1)
		id = c.tr.begin(span, -1, rid)
		c.req = append(c.req, hdrReq+": "...)
		c.req = strconv.AppendInt(c.req, rid, 10)
		c.req = append(c.req, "\r\n"+hdrSpan+": "...)
		c.req = strconv.AppendInt(c.req, int64(id), 10)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "\r\n"...)
	c.req = append(c.req, body...)
	code, err := c.exchange()
	c.tr.end(id)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	return code, c.body, nil
}

// postJSON sends v as a JSON body and decodes a 200 answer into out.
func (c *conn) postJSON(path string, v, out any, span string) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	code, resp, err := c.do(http.MethodPost, path, body, span)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, code, bytes.TrimSpace(resp))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp, out)
}

func (c *conn) exchange() (int, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, err
		}
		c.nc = nc
		if c.br == nil {
			c.br = bufio.NewReaderSize(nc, 16<<10)
		} else {
			c.br.Reset(nc)
		}
	}
	if err := c.nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := c.nc.Write(c.req); err != nil {
		return 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	code, ok := atoi(line[9:12])
	if !ok {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, found := bytes.Cut(line, []byte(":"))
		if !found {
			return 0, fmt.Errorf("bad header line %q", line)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, ok = atoi(v); !ok {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			closing = bytes.EqualFold(v, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	default:
		return 0, errors.New("response has neither Content-Length nor chunked encoding")
	}
	if err != nil {
		return 0, err
	}
	if closing {
		c.close()
	}
	return code, nil
}

// readN appends the next n body bytes to c.body.
func (c *conn) readN(n int) error {
	start := len(c.body)
	c.body = append(c.body, make([]byte, n)...)[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

func (c *conn) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, err := strconv.ParseInt(string(line), 16, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n > 0 {
			if err := c.readN(int(n)); err != nil {
				return err
			}
		}
		// CRLF after the chunk data; after the last chunk, the trailer
		// section ends with an empty line.
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return err
			}
			if len(bytes.TrimRight(line, "\r\n")) == 0 {
				break
			}
			if n > 0 {
				return fmt.Errorf("chunk not followed by CRLF")
			}
		}
		if n == 0 {
			return nil
		}
	}
}

// atoi parses a non-empty run of decimal digits.
func atoi(b []byte) (int, bool) {
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' || n > 1<<40 {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, len(b) > 0
}
