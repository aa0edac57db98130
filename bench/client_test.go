package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRawClientRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/echo":
			body, _ := io.ReadAll(r.Body)
			w.Write(append([]byte("got:"), body...))
		case "/chunked":
			// Flushing between writes makes net/http use chunked encoding.
			for i := 0; i < 3; i++ {
				w.Write([]byte(strings.Repeat("x", 1000)))
				w.(http.Flusher).Flush()
			}
		case "/empty":
			w.WriteHeader(http.StatusOK)
		default:
			http.Error(w, "no such route", http.StatusNotFound)
		}
	}))
	defer srv.Close()
	c, err := dialRaw(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	// Several requests on one connection: keep-alive framing must hold.
	for i := 0; i < 3; i++ {
		status, body, err := c.do(newRequest("POST", "/echo", []byte(`{"a":1}`)).wire)
		if err != nil || status != 200 || string(body) != `got:{"a":1}` {
			t.Fatalf("echo %d: status %d body %q err %v", i, status, body, err)
		}
	}
	status, body, err := c.do(newRequest("GET", "/chunked", nil).wire)
	if err != nil || status != 200 || len(body) != 3000 {
		t.Fatalf("chunked: status %d, %d body bytes, err %v", status, len(body), err)
	}
	status, body, err = c.do(newRequest("GET", "/missing", nil).wire)
	if err != nil || status != 404 || !strings.Contains(string(body), "no such route") {
		t.Fatalf("non-200: status %d body %q err %v", status, body, err)
	}
	status, body, err = c.do(newRequest("GET", "/empty", nil).wire)
	if err != nil || status != 200 || len(body) != 0 {
		t.Fatalf("empty: status %d body %q err %v", status, body, err)
	}
}

func TestRawClientTornResponse(t *testing.T) {
	for name, reply := range map[string]string{
		"body cut short": "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
		"headers cut":    "HTTP/1.1 200 OK\r\nContent-Le",
		"chunk cut":      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 4096)
			conn.Read(buf)
			conn.Write([]byte(reply))
			conn.Close()
		}()
		c, err := dialRaw(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = c.do(newRequest("GET", "/", nil).wire)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
		c.close()
		ln.Close()
	}
}
