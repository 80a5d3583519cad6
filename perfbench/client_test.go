package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestConnKeepAliveAndChunked(t *testing.T) {
	big := strings.Repeat("x", 5000) // past net/http's buffer: chunked
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.Write([]byte(`{"verdict":"dead"}`))
		case "/big":
			w.Write([]byte(big))
		case "/echo":
			io.Copy(w, r.Body)
		case "/flush":
			w.Write([]byte("a"))
			w.(http.Flusher).Flush()
			w.Write([]byte("b"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := newConn(strings.TrimPrefix(srv.URL, "http://"), nil)
	defer c.close()
	for _, tc := range []struct {
		path string
		code int
		body string
	}{
		{"/small", 200, `{"verdict":"dead"}`},
		{"/big", 200, big},
		{"/flush", 200, "ab"},
		{"/missing", 404, "404 page not found\n"},
		{"/small", 200, `{"verdict":"dead"}`},
	} {
		code, body, err := c.do(http.MethodGet, tc.path, nil, "client.test")
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		if code != tc.code || string(body) != tc.body {
			t.Fatalf("GET %s = %d %.40q, want %d %.40q", tc.path, code, body, tc.code, tc.body)
		}
	}
	var echoed map[string]int
	if err := c.postJSON("/echo", map[string]int{"days": 3}, &echoed, "client.test"); err != nil || echoed["days"] != 3 {
		t.Fatalf("POST /echo: %v %v", echoed, err)
	}
	first := c.nc
	if _, _, err := c.do(http.MethodGet, "/small", nil, "client.test"); err != nil || c.nc != first {
		t.Fatalf("connection not reused: err %v", err)
	}
}

func TestConnSendsTraceHeaders(t *testing.T) {
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Get(hdrReq)+"/"+r.Header.Get(hdrSpan))
	}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"), newTracer())
	defer c.close()
	for i := 0; i < 2; i++ {
		if code, _, err := c.do(http.MethodGet, "/", nil, "client.test"); err != nil || code != 200 {
			t.Fatalf("GET: %d %v", code, err)
		}
	}
	if len(got) != 2 || got[0] == got[1] || strings.HasPrefix(got[0], "/") || strings.HasSuffix(got[0], "/") {
		t.Fatalf("trace headers %q", got)
	}
	if n := c.tr.len(); n != 2 {
		t.Fatalf("%d spans recorded, want 2", n)
	}
}
