package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a module boundary, recorded by the
// benchmark around its own calls into the program. Start and End are
// nanoseconds since the tracer's epoch; Parent is the index of the
// enclosing span (-1 for a root); Req groups the spans of one request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: begin, end and len do nothing on it, so untraced
// runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// len returns how many spans have been recorded (0 when untraced).
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap (a
// stage fans work out over goroutines), so the covered part is the
// length of the union of the children's intervals clipped to the
// parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered measures the union of the given spans' intervals within
// [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// durationsOf returns the durations (or, with self, the self times) in
// microseconds of every span named name from index from on.
func durationsOf(spans []span, self []int64, name string, from int) []float64 {
	var out []float64
	for i, s := range spans {
		if i < from || s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self != nil {
			d = self[i]
		}
		out = append(out, float64(d)/1e3)
	}
	return out
}

// timingTransport wraps the simulated web's RoundTripper and records a
// span per round trip under whichever span the harness marked current.
type timingTransport struct {
	next   http.RoundTripper
	tr     *tracer
	parent atomic.Int64
	count  atomic.Int64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.count.Add(1)
	id := t.tr.begin("simweb.RoundTrip", int(t.parent.Load()), 0)
	resp, err := t.next.RoundTrip(req)
	t.tr.end(id)
	return resp, err
}

// Headers carrying a client span across the loopback hop, so the
// server-side handler span joins the client's request.
const (
	hdrReq  = "X-Request-Id"
	hdrSpan = "X-Bench-Span"
)

// traceHandler records a span around every request the server handles
// while on is set, parented to the client span named in the request
// headers. Off, it only forwards, so untraced phases of a traced run
// pay one atomic load per request.
type traceHandler struct {
	tr   *tracer
	next http.Handler
	on   atomic.Bool
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
	if err != nil {
		parent = -1
	}
	id := h.tr.begin("service.handler "+r.URL.Path, parent, req)
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}
