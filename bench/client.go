package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// response is what the load generator keeps of one HTTP response.
type response struct {
	status  int
	cache   string // X-Cache
	version int64  // X-Version
	span    int64  // X-Span, set by a traced plant only
	body    []byte // valid until the next get on the same conn
}

// conn is one keep-alive HTTP/1.1 connection driven by hand: a request is a
// prebuilt byte slice, a response is parsed in place. net/http's client
// would cost more CPU than the server under test and the two share this
// box's two cores.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// request returns the bytes of a GET for path.
func request(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

var errMalformed = errors.New("malformed HTTP response")

// get writes one request and reads the whole response.
func (c *conn) get(req []byte) (response, error) {
	var resp response
	if _, err := c.c.Write(req); err != nil {
		return resp, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return resp, errMalformed
	}
	if resp.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return resp, errMalformed
	}
	length := -1
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		i := bytes.IndexByte(line, ':')
		if i < 0 {
			return resp, errMalformed
		}
		val := bytes.TrimSpace(line[i+1:])
		switch string(line[:i]) {
		case "Content-Length":
			if length, err = strconv.Atoi(string(val)); err != nil {
				return resp, errMalformed
			}
		case "X-Cache":
			resp.cache = string(val)
		case "X-Version":
			resp.version, _ = strconv.ParseInt(string(val), 10, 64)
		case "X-Span":
			resp.span, _ = strconv.ParseInt(string(val), 10, 64)
		}
	}
	if length < 0 {
		return resp, fmt.Errorf("%w: no Content-Length", errMalformed)
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	resp.body = c.body[:length]
	if _, err := io.ReadFull(c.r, resp.body); err != nil {
		return resp, err
	}
	return resp, nil
}
