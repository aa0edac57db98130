package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// rawClient speaks just enough HTTP/1.1 over one keep-alive connection to
// send a pre-serialised request and read the reply: status line, headers,
// then a Content-Length or chunked body. A net/http client costs about as
// much per request as the daemon's whole handler and would hide the server
// the benchmark is measuring.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte // reused between calls
}

func dialRaw(addr string) (*rawClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &rawClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *rawClient) close() { c.conn.Close() }

// do sends one request and reads one response. The returned body aliases the
// client's buffer and is valid until the next call. A response cut short
// surfaces as io.ErrUnexpectedEOF.
func (c *rawClient) do(wire []byte) (status int, body []byte, err error) {
	if _, err := c.conn.Write(wire); err != nil {
		return 0, nil, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.readLine()
		if err != nil {
			return status, nil, err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return status, nil, fmt.Errorf("bad header line %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil || length < 0 {
				return status, nil, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.readLine()
			if err != nil {
				return status, nil, err
			}
			size, perr := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
			if perr != nil {
				return status, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if err = c.readBody(int(size)); err != nil {
				return status, nil, err
			}
			// Each chunk, and the zero-size last one, ends in CRLF.
			if line, err = c.readLine(); err != nil {
				return status, nil, err
			} else if len(line) != 0 {
				return status, nil, fmt.Errorf("chunk not followed by CRLF: %q", line)
			}
			if size == 0 {
				return status, c.body, nil
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return status, nil, err
		}
		return status, c.body, nil
	default:
		return status, nil, fmt.Errorf("response has neither Content-Length nor chunked encoding")
	}
}

// readLine returns the next line without its CRLF; EOF mid-response is a
// torn response.
func (c *rawClient) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// readBody appends n bytes of the response to c.body.
func (c *rawClient) readBody(n int) error {
	start := len(c.body)
	if need := start + n; need > cap(c.body) {
		c.body = append(make([]byte, 0, need+need/4), c.body...)
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}
