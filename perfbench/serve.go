package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"permadead/internal/persist"
	"permadead/internal/service"
)

// serveSetupReps is how many times a serve workload brings the server
// up; setup_s is the median.
const serveSetupReps = 5

// probeWindow bounds the serve phases a traced run adds for the layers
// its own workload does not exercise, so every traced run reports the
// full per-layer table.
const probeWindow = 4 * time.Second

// zipfS is serve-churn's read skew: its hot set fits the response
// cache.
const zipfS = 1.1

// tickPeriod is serve-churn's writer schedule: one edit and one
// simulated day per 50 ms. With the monitor's 30-day TTL the watch
// table falls due once per churnCycle (1.5 s), and serve-churn's
// per-slice figures use that cycle as the slice, so every slice holds
// one re-check burst.
const tickPeriod = 50 * time.Millisecond

var churnCycle = time.Duration(service.DefaultConfig().MonitorTTLDays) * tickPeriod

// server is one in-process permadeadd: a bundle opened from the saved
// universe, the service over it, and a loopback listener.
type server struct {
	b    *persist.Bundle
	srv  *service.Server
	http *http.Server
	addr string
	done chan struct{}
	// trace is the handler span recorder (nil when untraced).
	trace *traceHandler
}

// tracing switches the client and handler spans of s's requests on or
// off and returns the tracer client connections should use.
func (s *server) tracing(on bool) *tracer {
	if s.trace == nil {
		return nil
	}
	s.trace.on.Store(on)
	if !on {
		return nil
	}
	return s.trace.tr
}

// startServer opens the universe and brings up service.New with
// service.DefaultConfig on a loopback listener, reporting how long the
// open and service.New took.
func (r *run) startServer() (*server, float64, float64, error) {
	t0 := time.Now()
	b, err := persist.OpenPaged(r.in.path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("opening universe: %w", err)
	}
	openS := time.Since(t0).Seconds()
	cfg := service.DefaultConfig()
	cfg.Study = r.in.cfg
	t1 := time.Now()
	srv, err := service.New(b, cfg)
	if err != nil {
		b.Close()
		return nil, 0, 0, err
	}
	newS := time.Since(t1).Seconds()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // closing after a failed start
		b.Close()
		return nil, 0, 0, err
	}
	s := &server{b: b, srv: srv, addr: ln.Addr().String(), done: make(chan struct{})}
	h := srv.Handler()
	if r.traced() {
		s.trace = &traceHandler{tr: r.tr, next: h}
		h = s.trace
	}
	s.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	}()
	return s, openS, newS, nil
}

// stop drains the service (stopping its monitor), closes the listener,
// waits for the serve loop to exit, and unmaps the universe.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	<-s.done
	if berr := s.b.Close(); err == nil {
		err = berr
	}
	return err
}

// setupServer brings the server up serveSetupReps times, stopping all
// but the last, and records the set-up metrics.
func (r *run) setupServer(reps int) (*server, error) {
	var setups, opens, news []float64
	var s *server
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		ns, openS, newS, err := r.startServer()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, openS)
		news = append(news, newS)
		if s != nil {
			if err := s.stop(); err != nil {
				ns.stop() //nolint:errcheck // already failing
				return nil, fmt.Errorf("stopping server: %w", err)
			}
		}
		s = ns
	}
	if r.workload != "study" {
		r.out.e2e("setup_s", median(setups), "s", len(setups))
		r.out.layer("persist.OpenPaged_s", median(opens), "s", len(opens))
	}
	r.out.layer("service.New_s", median(news), "s", len(news))
	return s, nil
}

// classifyPaths are the /v1/classify request paths, one per link.
func (r *run) classifyPaths() []string {
	out := make([]string, len(r.in.links))
	for i, l := range r.in.links {
		out[i] = "/v1/classify?url=" + url.QueryEscape(l.URL)
	}
	return out
}

// warmUp classifies every sampled link once over two connections and
// checks each verdict against the reference study. It returns each
// link's response body, which later requests must repeat byte for byte.
func (r *run) warmUp(s *server, paths []string) [][]byte {
	bodies := make([][]byte, len(paths))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(s.addr, nil)
			defer c.close()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(paths) {
					return
				}
				code, body, err := c.do(http.MethodGet, paths[i], nil, "client.classify")
				var v struct {
					Verdict string `json:"verdict"`
				}
				switch {
				case err != nil:
					r.out.fail("warm-up %s: %v", r.in.links[i].URL, err)
				case code != http.StatusOK:
					r.out.fail("warm-up %s: status %d", r.in.links[i].URL, code)
				case json.Unmarshal(body, &v) != nil:
					r.out.fail("warm-up %s: undecodable body", r.in.links[i].URL)
				case v.Verdict != string(r.in.links[i].Verdict):
					r.out.fail("warm-up %s: verdict %s, study says %s", r.in.links[i].URL, v.Verdict, r.in.links[i].Verdict)
				default:
					r.out.succeeded(1)
					bodies[i] = append([]byte(nil), body...)
				}
			}
		}()
	}
	wg.Wait()
	return bodies
}

// reader is one closed-loop classify connection in a timed window.
type reader struct {
	lat       []sample
	ok, fails int64
}

// readLoop sends classify requests chosen by pick from start until
// deadline, checking each answer against the warm-up body for that
// link.
func (r *run) readLoop(s *server, paths []string, bodies [][]byte, pick func() int, start, deadline time.Time, tr *tracer) *reader {
	c := newConn(s.addr, tr)
	defer c.close()
	rd := &reader{lat: make([]sample, 0, 1<<16)}
	for time.Now().Before(deadline) {
		i := pick()
		t0 := time.Now()
		code, body, err := c.do(http.MethodGet, paths[i], nil, "client.classify")
		d := time.Since(t0)
		switch {
		case err != nil:
			rd.fails++
			r.out.fail("classify %s: %v", r.in.links[i].URL, err)
		case code != http.StatusOK || !bytes.Equal(body, bodies[i]):
			rd.fails++
			r.out.fail("classify %s: status %d, body differs from warm-up: %v", r.in.links[i].URL, code, !bytes.Equal(body, bodies[i]))
		default:
			rd.ok++
			rd.lat = append(rd.lat, sample{at: time.Since(start), ms: float64(d) / 1e6})
		}
	}
	return rd
}

// window is what one timed serve phase measured.
type window struct {
	reads          []sample // successful classify requests, all reading conns
	ok, fails      int64
	writes         int64         // completed edit/tick/article requests
	length         time.Duration // the window reads ran for
	elapsed        time.Duration // until the last request ended
	allocs         uint64
	checks         int64 // monitor re-checks during the window
	before, after  metricsDoc
	editMS, tickMS []float64
	tickChecks     []int64
	lagMS          []float64 // how late each late writer step started
}

func (w *window) requests() int64 { return w.ok + w.fails + w.writes }

// uniformPhase runs serve-uniform's traffic for d: two connections
// classify links round-robin from a shared cursor.
func (r *run) uniformPhase(s *server, paths []string, bodies [][]byte, d time.Duration, tr *tracer) (*window, error) {
	w := &window{length: d}
	var err error
	if w.before, err = fetchMetrics(s.addr); err != nil {
		return nil, err
	}
	var cursor atomic.Int64
	pick := func() int { return int((cursor.Add(1) - 1) % int64(len(paths))) }
	m0 := mallocs()
	start := time.Now()
	deadline := start.Add(d)
	readers := make([]*reader, 2)
	var wg sync.WaitGroup
	for k := range readers {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			readers[k] = r.readLoop(s, paths, bodies, pick, start, deadline, tr)
		}(k)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.allocs = mallocs() - m0
	recordRSS(r.out)
	for _, rd := range readers {
		w.reads = append(w.reads, rd.lat...)
		w.ok += rd.ok
		w.fails += rd.fails
	}
	r.out.succeeded(w.ok)
	if w.after, err = fetchMetrics(s.addr); err != nil {
		return nil, err
	}
	return w, nil
}

// churnPhase runs serve-churn's traffic for d: connection 1 classifies
// zipf-drawn links while connection 2 edits watched articles and
// advances the monitor one simulated day per edit.
func (r *run) churnPhase(s *server, paths []string, bodies [][]byte, d time.Duration, tr *tracer) (*window, error) {
	w := &window{length: d}
	writer := newConn(s.addr, tr)
	defer writer.close()
	if err := writer.postJSON("/v1/watch", map[string][]string{"articles": r.in.articles}, nil, "client.watch"); err != nil {
		return nil, fmt.Errorf("watching sampled articles: %w", err)
	}
	var tick0 tickResp
	if err := writer.postJSON("/v1/sim/tick", map[string]int{"days": 0}, &tick0, "client.tick"); err != nil {
		return nil, err
	}
	urls := make([]string, len(r.in.links))
	for i, l := range r.in.links {
		urls[i] = l.URL
	}
	edits := newEditChooser(r.seed, r.in.articles, urls)
	texts := make(map[string]string)
	zipf := newZipfPicker(r.seed, zipfS, len(paths))

	var err error
	if w.before, err = fetchMetrics(s.addr); err != nil {
		return nil, err
	}
	m0 := mallocs()
	start := time.Now()
	deadline := start.Add(d)
	// The popularity ranking is redrawn at every churn cycle, the slice
	// the figures are cut by. With s = 1.1 the hottest link alone takes
	// about a seventh of the reads, so under one ranking a run's rate
	// and tail rest on which verdicts and bodies a few links have; over
	// a ranking per slice they rest on the workload.
	cycle := 0
	pick := func() int {
		if k := int(time.Since(start) / churnCycle); k != cycle {
			cycle = k
			zipf.reshuffle()
		}
		return zipf.next()
	}
	var rd *reader
	done := make(chan struct{})
	go func() {
		defer close(done)
		rd = r.readLoop(s, paths, bodies, pick, start, deadline, tr)
	}()
	checks := tick0.Stats.ChecksExecuted
	var werr error
	// The writer is paced: simulated days advance on a wall-clock
	// schedule, so the monitor's load per second is the same on every
	// run and every commit. A step that starts late records its lag.
	for due := start; due.Before(deadline); due = due.Add(tickPeriod) {
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		} else {
			w.lagMS = append(w.lagMS, float64(-wait)/1e6)
		}
		e := edits.next()
		text, ok := texts[e.Article]
		if !ok {
			var art struct {
				Text string `json:"text"`
			}
			code, body, err := writer.do(http.MethodGet, "/v1/sim/article?title="+url.QueryEscape(e.Article), nil, "client.article")
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			if err == nil {
				err = json.Unmarshal(body, &art)
			}
			if err != nil {
				werr = fmt.Errorf("reading article %q: %w", e.Article, err)
				break
			}
			w.writes++
			text = art.Text
		}
		next, err := e.apply(text)
		if err != nil {
			werr = err
			break
		}
		t0 := time.Now()
		err = writer.postJSON("/v1/sim/edit", map[string]string{"title": e.Article, "user": "BenchBot", "comment": "citation churn", "text": next}, nil, "client.edit")
		if err != nil {
			werr = err
			break
		}
		w.editMS = append(w.editMS, float64(time.Since(t0))/1e6)
		texts[e.Article] = next
		w.writes++

		var tk tickResp
		t0 = time.Now()
		if err := writer.postJSON("/v1/sim/tick", map[string]int{"days": 1}, &tk, "client.tick"); err != nil {
			werr = err
			break
		}
		w.tickMS = append(w.tickMS, float64(time.Since(t0))/1e6)
		w.tickChecks = append(w.tickChecks, tk.Stats.ChecksExecuted-checks)
		checks = tk.Stats.ChecksExecuted
		w.writes++
	}
	<-done
	w.elapsed = time.Since(start)
	w.allocs = mallocs() - m0
	recordRSS(r.out)
	w.reads, w.ok, w.fails = rd.lat, rd.ok, rd.fails
	w.checks = checks - tick0.Stats.ChecksExecuted
	r.out.succeeded(w.ok + w.writes)
	if werr != nil {
		r.out.fail("churn writer: %v", werr)
	}
	if w.after, err = fetchMetrics(s.addr); err != nil {
		return nil, err
	}
	return w, nil
}

type tickResp struct {
	Stats monitorStats `json:"stats"`
}

// monitorStats is the part of monitor.Stats the benchmark reads, from
// tick responses and from /metrics.
type monitorStats struct {
	ChecksExecuted int64 `json:"checks_executed"`
	FlipsToDead    int64 `json:"flips_to_dead"`
	FlipsToAlive   int64 `json:"flips_to_alive"`
	JournalEntries int64 `json:"journal_entries"`
	FeedDropped    int64 `json:"feed_dropped"`
}

// metricsDoc is the part of GET /metrics the benchmark reads.
type metricsDoc struct {
	Cache        struct{ Hits, Misses int64 } `json:"cache"`
	NegCache     struct{ Hits, Misses int64 } `json:"negcache"`
	Singleflight struct {
		Coalesced int64 `json:"coalesced"`
	} `json:"singleflight"`
	Prefilter struct {
		Checks     int64 `json:"checks"`
		DefiniteNo int64 `json:"definite_no"`
	} `json:"prefilter"`
	Admission struct {
		Rejected         int64 `json:"rejected"`
		ClassifyRejected int64 `json:"classify_rejected"`
	} `json:"admission"`
	Monitor monitorStats `json:"monitor"`
}

// fetchMetrics reads GET /metrics on a connection of its own, outside
// any timed window.
func fetchMetrics(addr string) (metricsDoc, error) {
	var m metricsDoc
	c := newConn(addr, nil)
	defer c.close()
	code, body, err := c.do(http.MethodGet, "/metrics", nil, "")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(body, &m)
	}
	if err != nil {
		return m, fmt.Errorf("reading /metrics: %w", err)
	}
	return m, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runServe runs serve-uniform or serve-churn.
func (r *run) runServe() error {
	if r.traced() {
		// The study layers run on a bundle of their own, before any
		// server traffic.
		b, _, err := openStudy(r.in.path)
		if err != nil {
			return err
		}
		r.replay(r.studyPhase(b, 0))
		if err := b.Close(); err != nil {
			return err
		}
	}
	s, err := r.setupServer(serveSetupReps)
	if err != nil {
		return err
	}
	defer s.stop() //nolint:errcheck // the run's result is already decided; stop only releases resources
	return r.serveTraffic(s)
}

// serveProbes gives a traced study run the serve-side layers: a brief
// server set-up and short uniform and churn phases.
func (r *run) serveProbes() error {
	s, err := r.setupServer(2)
	if err != nil {
		return err
	}
	defer s.stop() //nolint:errcheck // see runServe
	return r.serveTraffic(s)
}

// serveTraffic warms the server, then runs the workload's timed phase.
// A traced run also runs the other serve phase for probeWindow, and
// serve-uniform's traced run splits its window into an untraced and a
// traced half to measure the tracing overhead.
func (r *run) serveTraffic(s *server) error {
	paths := r.classifyPaths()
	// A link whose warm-up failed has no body, so every timed request
	// for it fails too: the run completes and reports the failures.
	bodies := r.warmUp(s, paths)

	uniformD, churnD := r.window, r.window
	switch r.workload {
	case "serve-uniform":
		churnD = probeWindow
	case "serve-churn":
		uniformD = probeWindow
	default:
		uniformD, churnD = probeWindow, probeWindow
	}

	if r.workload == "serve-uniform" || r.traced() {
		var plain *window
		if r.traced() {
			var err error
			if plain, err = r.uniformPhase(s, paths, bodies, uniformD/2, nil); err != nil {
				return err
			}
			uniformD /= 2
		}
		from := r.tr.len()
		w, err := r.uniformPhase(s, paths, bodies, uniformD, s.tracing(true))
		if err != nil {
			return err
		}
		if r.workload == "serve-uniform" {
			r.opMetrics(w, time.Second)
		}
		if r.traced() {
			if r.workload != "serve-churn" {
				r.handlerMetrics(from)
			}
			plainRPS := float64(plain.ok) / plain.elapsed.Seconds()
			tracedRPS := float64(w.ok) / w.elapsed.Seconds()
			r.out.layer("trace.classify_rps_untraced", plainRPS, "1/s", int(plain.ok))
			r.out.layer("trace.classify_rps_traced", tracedRPS, "1/s", int(w.ok))
			r.out.layer("trace.overhead_frac", 1-tracedRPS/plainRPS, "ratio", 2)
			r.out.layer("service.negcache_hit_ratio", ratio(w.after.NegCache.Hits-w.before.NegCache.Hits,
				w.after.NegCache.Hits-w.before.NegCache.Hits+w.after.NegCache.Misses-w.before.NegCache.Misses), "ratio", int(w.ok))
			r.out.layer("archive.prefilter_definite_no_ratio", ratio(w.after.Prefilter.DefiniteNo-w.before.Prefilter.DefiniteNo,
				w.after.Prefilter.Checks-w.before.Prefilter.Checks), "ratio", int(w.after.Prefilter.Checks-w.before.Prefilter.Checks))
		}
	}
	if r.workload == "serve-churn" || r.traced() {
		from := r.tr.len()
		w, err := r.churnPhase(s, paths, bodies, churnD, s.tracing(true))
		if err != nil {
			return err
		}
		if r.workload == "serve-churn" {
			r.opMetrics(w, churnCycle)
			if r.traced() {
				r.handlerMetrics(from)
			}
		}
		rechecks := float64(w.checks) / w.elapsed.Seconds()
		lateFrac := float64(len(w.lagMS)) / float64(max(len(w.tickMS), 1))
		fmt.Printf("serve-churn writer: %d edits, %d ticks, %d re-checks (%.0f/s); %d steps started late (median %.1f ms)\n",
			len(w.editMS), len(w.tickMS), w.checks, rechecks, len(w.lagMS), median(w.lagMS))
		if r.traced() {
			r.out.layer("monitor.tick_late_frac", lateFrac, "ratio", len(w.tickMS))
			var tickMS, checks float64
			for i, n := range w.tickChecks {
				if n > 0 {
					tickMS += w.tickMS[i]
					checks += float64(n)
				}
			}
			r.out.layer("monitor.rechecks_per_s", rechecks, "1/s", len(w.tickMS))
			r.out.layer("monitor.check_us", tickMS*1e3/checks, "us", int(checks))
			r.out.layer("monitor.checks_executed", float64(w.checks), "count", len(w.tickMS))
			r.out.layer("monitor.flips", float64(w.after.Monitor.FlipsToDead+w.after.Monitor.FlipsToAlive-
				w.before.Monitor.FlipsToDead-w.before.Monitor.FlipsToAlive), "count", len(w.tickMS))
			r.out.layer("journal.entries", float64(w.after.Monitor.JournalEntries), "count", 1)
			r.out.layer("eventstream.feed_dropped", float64(w.after.Monitor.FeedDropped), "count", 1)
			r.out.layer("wikimedia.edit_ms", median(w.editMS), "ms", len(w.editMS))
			r.out.layer("service.cache_hit_ratio", ratio(w.after.Cache.Hits-w.before.Cache.Hits,
				w.after.Cache.Hits-w.before.Cache.Hits+w.after.Cache.Misses-w.before.Cache.Misses), "ratio", int(w.ok))
		}
	}
	s.tracing(false)
	if r.traced() {
		m, err := fetchMetrics(s.addr)
		if err != nil {
			return err
		}
		r.out.layer("service.singleflight_coalesced", float64(m.Singleflight.Coalesced), "count", 1)
		r.out.layer("service.admission_rejected", float64(m.Admission.Rejected+m.Admission.ClassifyRejected), "count", 1)
	}
	return nil
}

// opMetrics records a serve workload's end-to-end metrics from its
// timed window.
func (r *run) opMetrics(w *window, slice time.Duration) {
	st := sliceStats(w.reads, w.length, slice)
	r.out.e2e("op_p50_ms", st.p50, "ms", st.n)
	r.out.e2e("op_tail_ms", st.tail, "ms", st.n)
	r.out.e2e("ops_per_s", st.rate, "1/s", st.n)
	r.out.e2e("allocs_per_op", float64(w.allocs)/float64(w.requests()), "count", int(w.requests()))
	fmt.Printf("%s: %d classify requests in %.2fs over %d slices of %s: p50 %.4f ms, median slice p%g %.4f ms, median slice rate %.0f/s; %d writes\n",
		r.workload, st.n, w.elapsed.Seconds(), st.slices, slice, st.p50, st.tailP, st.tail, st.rate, w.writes)
}

// handlerMetrics derives the server-side classify handler time and the
// client's self time (everything outside the handler: net/http, the
// loopback hop and the client) from the request spans recorded since
// span index from.
func (r *run) handlerMetrics(from int) {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	h := durationsOf(spans, nil, "service.handler /v1/classify", from)
	c := durationsOf(spans, self, "client.classify", from)
	r.out.layer("service.handler_p50_us", median(h), "us", len(h))
	r.out.layer("service.client_self_us", median(c), "us", len(c))
}
