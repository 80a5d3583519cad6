// Command smoke runs the end-to-end smoke scenarios against freshly
// built binaries: it boots permadeadd (and, for the fleet, the router)
// on ephemeral ports, drives them over HTTP and with loadgen, and
// exits 1 on the first violated contract, printing the tail of every
// server log.
//
// Usage:
//
//	go run ./cmd/smoke <scenario>...
//
// Scenarios: serve, batch, persist, stream, shard, fed. Each gate and
// bound below is a fixed constant; the scenario names are the only
// arguments. Smoke runs write no bench files (`make bench` does).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Gates and bounds.
const (
	universeScale = "0.05"

	batchP99Max  = "8s" // batch and persist batch loadgen runs
	streamP99Max = "2s" // SSE fan-out delivery

	coldStartSpeedupMin = 50.0 // paged open vs gob load
	coldStartMaxMS      = 500.0
	pagedThroughputMin  = 0.75 // paged batch req/s over the gob-loaded server's
	verdictSample       = 60   // links whose verdicts must match gob vs paged

	shardLiveLatency = "25ms"
	shardRequests    = "240"
	shardScalingMin  = 3.0 // 4-shard classify req/s over 1-shard

	fedURLs            = 120
	fedRequests        = "300"
	hedgedP99MaxFactor = 2.0 // federated lookup p99 over the bare archive's
	usableGainMin      = 1
	gridScale          = "0.06"
)

const bootTimeout = 30 * time.Second

var scenarios = map[string]func(){
	"serve":   serve,
	"batch":   batch,
	"persist": persist,
	"stream":  stream,
	"shard":   shard,
	"fed":     fed,
}

var binaries = []string{"permadeadd", "permadead-router", "loadgen", "worldgen", "universeconv", "ablate"}

var (
	workdir string
	procs   []*proc // every server started, for log dumps and cleanup
	client  = &http.Client{Timeout: 30 * time.Second}
)

func main() {
	names := os.Args[1:]
	for _, n := range names {
		if scenarios[n] == nil {
			names = nil
			break
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: smoke serve|batch|persist|stream|shard|fed ...")
		os.Exit(2)
	}
	var err error
	if workdir, err = os.MkdirTemp("", "smoke"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pkgs := []string{"build", "-o", workdir + string(filepath.Separator)}
	for _, b := range binaries {
		pkgs = append(pkgs, "permadead/cmd/"+b)
	}
	if out, err := exec.Command("go", pkgs...).CombinedOutput(); err != nil {
		fail("go build: %v\n%s", err, out)
	}
	for _, n := range names {
		fmt.Printf("=== smoke %s\n", n)
		scenarios[n]()
		fmt.Printf("--- %s smoke OK\n", n)
	}
	os.RemoveAll(workdir)
}

// fail reports a violated contract with the tail of every server log,
// kills whatever still runs, and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	for _, p := range procs {
		if b, err := os.ReadFile(p.log); err == nil {
			lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
			fmt.Fprintf(os.Stderr, "--- %s log (tail)\n%s\n", p.name, strings.Join(lines[max(0, len(lines)-40):], "\n"))
		}
		if p.running() {
			p.cmd.Process.Kill() //nolint:errcheck // exiting anyway
		}
	}
	os.RemoveAll(workdir)
	os.Exit(1)
}

// proc is one server process booted with -addr-file.
type proc struct {
	name, log, addr string
	cmd             *exec.Cmd
	exited          chan struct{}
	err             error
}

func (p *proc) running() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// start boots a server on an ephemeral port and waits for it to write
// its address, failing if it exits first or takes over bootTimeout.
func start(name, bin string, args ...string) *proc {
	file := filepath.Join(workdir, fmt.Sprintf("%s-%d", name, len(procs)))
	addrFile := file + ".addr"
	p := &proc{name: name, log: file + ".log", exited: make(chan struct{})}
	logf, err := os.Create(p.log)
	if err != nil {
		fail("%v", err)
	}
	defer logf.Close()
	p.cmd = exec.Command(filepath.Join(workdir, bin),
		append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	if err := p.cmd.Start(); err != nil {
		fail("starting %s: %v", name, err)
	}
	procs = append(procs, p)
	go func() { p.err = p.cmd.Wait(); close(p.exited) }()
	deadline := time.After(bootTimeout)
	for {
		// The address is written with a trailing newline; a read
		// without one raced the write.
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			p.addr = strings.TrimSpace(string(b))
			return p
		}
		select {
		case <-p.exited:
			fail("%s exited during startup: %v", name, p.err)
		case <-deadline:
			fail("%s never wrote its address", name)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM and requires a clean (zero) exit.
func (p *proc) stop() {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("signalling %s: %v", p.name, err)
	}
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		fail("%s did not exit within 60s of SIGTERM", p.name)
	}
	if p.err != nil {
		fail("%s did not shut down cleanly: %v", p.name, p.err)
	}
}

// run executes a tool binary to completion and returns its combined
// output, failing (with that output) on a non-zero exit.
func run(bin string, args ...string) string {
	out, err := exec.Command(filepath.Join(workdir, bin), args...).CombinedOutput()
	if err != nil {
		fail("%s %s: %v\n%s", bin, strings.Join(args, " "), err, out)
	}
	return string(out)
}

// loadgen runs cmd/loadgen against addr and echoes its report.
func loadgen(addr string, args ...string) string {
	out := run("loadgen", append([]string{"-addr", addr}, args...)...)
	fmt.Print(out)
	return out
}

// benchValue reads the figure preceding unit on the output's
// Benchmark<name> line.
func benchValue(out, name, unit string) float64 {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "Benchmark"+name {
			continue
		}
		for i := 1; i+1 < len(f); i++ {
			if f[i+1] == unit {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					fail("Benchmark%s %s: %v", name, unit, err)
				}
				return v
			}
		}
	}
	fail("no %s figure on a Benchmark%s line in:\n%s", unit, name, out)
	return 0
}

// get fetches target and returns status, headers and body.
func get(c *http.Client, target string) (int, http.Header, []byte) {
	resp, err := c.Get(target)
	if err != nil {
		fail("GET %s: %v", target, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("GET %s: reading body: %v", target, err)
	}
	return resp.StatusCode, resp.Header, body
}

// getOK fetches target, requiring a 200.
func getOK(target string) []byte {
	code, _, body := get(client, target)
	if code != http.StatusOK {
		fail("GET %s returned %d: %s", target, code, body)
	}
	return body
}

func getJSON(target string, out any) {
	if err := json.Unmarshal(getOK(target), out); err != nil {
		fail("GET %s: bad JSON: %v", target, err)
	}
}

func postJSON(target string, in, out any) {
	data, err := json.Marshal(in)
	if err != nil {
		fail("%v", err)
	}
	resp, err := client.Post(target, "application/json", bytes.NewReader(data))
	if err != nil {
		fail("POST %s: %v", target, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		fail("POST %s returned %d (%v): %s", target, resp.StatusCode, err, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			fail("POST %s: bad JSON: %v", target, err)
		}
	}
}

// classifyURL is the /v1/classify request for link u.
func classifyURL(p *proc, u string) string {
	return p.url("/v1/classify?url=" + url.QueryEscape(u))
}

// sample returns n sampled links from p's /v1/sample.
func sample(p *proc, n int) []string {
	var sr struct {
		URLs []string `json:"urls"`
	}
	getJSON(p.url(fmt.Sprintf("/v1/sample?n=%d", n)), &sr)
	if len(sr.URLs) == 0 {
		fail("%s /v1/sample returned no URLs", p.name)
	}
	return sr.URLs
}

// jsonValues returns every value stored under key at any depth of a
// decoded JSON document.
func jsonValues(v any, key string) []any {
	var out []any
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if k == key {
				out = append(out, x)
			}
			out = append(out, jsonValues(x, key)...)
		}
	case []any:
		for _, x := range v {
			out = append(out, jsonValues(x, key)...)
		}
	}
	return out
}

// metricSum sums every numeric value stored under key in /metrics.
func metricSum(p *proc, key string) float64 {
	var m any
	getJSON(p.url("/metrics"), &m)
	sum := 0.0
	for _, v := range jsonValues(m, key) {
		if f, ok := v.(float64); ok {
			sum += f
		}
	}
	return sum
}

// requireMetrics fails unless /metrics carries every key.
func requireMetrics(p *proc, keys ...string) {
	var m any
	getJSON(p.url("/metrics"), &m)
	for _, k := range keys {
		if len(jsonValues(m, k)) == 0 {
			fail("%s /metrics lacks %q", p.name, k)
		}
	}
}

func require5xxFree(p *proc) {
	if n := metricSum(p, "5xx"); n > 0 {
		fail("%s counted %.0f 5xx responses", p.name, n)
	}
}

// serve boots permadeadd over a small universe, hits every endpoint
// once, then drives two loadgen rounds: the repeat must hit the cache,
// and the server must count zero 5xx.
func serve() {
	p := start("serve", "permadeadd", "-scale", universeScale)
	u := sample(p, 1)[0]
	for path, key := range map[string]string{
		"/v1/classify": "verdict", "/v1/status": "category", "/v1/availability": "available",
	} {
		var body any
		if getJSON(p.url(path+"?url="+url.QueryEscape(u)), &body); len(jsonValues(body, key)) == 0 {
			fail("%s answer lacks %q", path, key)
		}
	}
	var health struct{ Status string }
	if getJSON(p.url("/healthz"), &health); health.Status != "ok" {
		fail("/healthz status %q", health.Status)
	}
	// Two rounds so the second runs against a warm cache. loadgen
	// exits 1 on any 5xx, transport error, or zero successes.
	loadgen(p.addr, "-n", "200", "-c", "16")
	loadgen(p.addr, "-n", "200", "-c", "16")
	if metricSum(p, "hits") == 0 {
		fail("no cache hits in /metrics")
	}
	require5xxFree(p)
	p.stop()
}

// batch checks one NDJSON batch by hand, then drives zipf-skewed batch
// load with the archive's capture prefilter on and off.
func batch() {
	for _, extra := range [][]string{nil, {"-no-prefilter"}} {
		p := start("batch", "permadeadd", append([]string{"-scale", universeScale}, extra...)...)
		bench := "BatchZipfPrefilterOn"
		if extra == nil {
			checkBatchEndpoint(p)
		} else {
			bench = "BatchZipfPrefilterOff"
		}
		loadgen(p.addr, "-workload", "batch", "-n", "40", "-c", "8", "-batch-size", "50",
			"-zipf", "1.2", "-sample", "64", "-p99-max", batchP99Max, "-bench", bench)
		require5xxFree(p)
		requireMetrics(p, "requests_batch", "singleflight", "prefilter")
		p.stop()
	}
}

func checkBatchEndpoint(p *proc) {
	urls := sample(p, 3)
	data, _ := json.Marshal(map[string][]string{"urls": urls}) // a string map always encodes
	resp, err := client.Post(p.url("/v1/classify/batch"), "application/json", bytes.NewReader(data))
	if err != nil {
		fail("batch POST: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for ; sc.Scan(); lines++ {
		var line any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || len(jsonValues(line, "verdict")) == 0 {
			fail("batch line %d carries no verdict: %s", lines, sc.Bytes())
		}
	}
	if resp.StatusCode != http.StatusOK || lines != len(urls) {
		fail("batch of %d answered %d with %d NDJSON lines", len(urls), resp.StatusCode, lines)
	}
	// A wrong method must name the right one.
	if code, h, _ := get(client, p.url("/v1/classify/batch")); code != http.StatusMethodNotAllowed || h.Get("Allow") != "POST" {
		fail("GET on batch route: %d, Allow=%q, want 405 POST", code, h.Get("Allow"))
	}
}

var startupLoad = regexp.MustCompile(`startup load=(\d+)ms`)

// persist converts a gob universe to the paged format and gates the
// cold start, verdict identity, and batch throughput parity.
func persist() {
	gob, paged := filepath.Join(workdir, "u.gob"), filepath.Join(workdir, "u.pduniv")
	run("worldgen", "-scale", universeScale, "-seed", "1", "-save", gob, "-save-format", "gob")
	conv := run("universeconv", "-in", gob, "-out", paged, "-bench")
	fmt.Print(conv)
	run("universeconv", "-check", paged)
	speedup := benchValue(conv, "UniverseOpenPaged", "speedup")
	pagedMS := benchValue(conv, "UniverseOpenPaged", "load-ms")
	if speedup < coldStartSpeedupMin {
		fail("paged cold start only %.1fx faster than gob (need >= %.0fx)", speedup, coldStartSpeedupMin)
	}
	if pagedMS > coldStartMaxMS {
		fail("paged cold start %.1fms exceeds budget %.0fms", pagedMS, coldStartMaxMS)
	}

	p := start("persist-gob", "permadeadd", "-load", gob)
	if b, _ := os.ReadFile(p.log); !startupLoad.Match(b) {
		fail("no startup-phase timing line in boot log")
	}
	requireMetrics(p, "startup_ms")
	urls := sample(p, verdictSample)
	gobVerdicts := make([][]byte, len(urls))
	for i, u := range urls {
		gobVerdicts[i] = getOK(classifyURL(p, u))
	}
	gobRPS := bestBatchRPS(p, "BatchZipfGobServe")
	p.stop()

	p = start("persist-paged", "permadeadd", "-load", paged)
	b, _ := os.ReadFile(p.log)
	m := startupLoad.FindSubmatch(b)
	if m == nil {
		fail("no startup timing line in paged boot log")
	}
	if ms, _ := strconv.ParseFloat(string(m[1]), 64); ms > coldStartMaxMS {
		fail("paged server load phase %.0fms exceeds %.0fms", ms, coldStartMaxMS)
	}
	for i, u := range urls {
		if got := getOK(classifyURL(p, u)); !bytes.Equal(got, gobVerdicts[i]) {
			fail("classify verdicts differ between gob and paged for %s:\ngob:   %s\npaged: %s", u, gobVerdicts[i], got)
		}
	}
	fmt.Printf("verdicts byte-identical across %d sampled links\n", len(urls))
	pagedRPS := bestBatchRPS(p, "BatchZipfPagedServe")
	if pagedRPS < gobRPS*pagedThroughputMin {
		fail("paged batch throughput %.1f req/s below %.2fx of in-memory %.1f req/s", pagedRPS, pagedThroughputMin, gobRPS)
	}
	// A short soak: steady-state memory readout, zero 5xx.
	loadgen(p.addr, "-workload", "soak", "-duration", "6s", "-report", "2s", "-c", "4",
		"-sample", "64", "-bench", "SoakPaged")
	p.stop()
}

// bestBatchRPS warms p up, then returns the best req/s of three batch
// passes: single short passes swing tens of percent with ambient load,
// while zero 5xx and the p99 bound still gate every pass.
func bestBatchRPS(p *proc, bench string) float64 {
	run("loadgen", "-addr", p.addr, "-workload", "batch", "-n", "20", "-c", "8", "-batch-size", "50",
		"-zipf", "1.2", "-sample", "64")
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		out := loadgen(p.addr, "-workload", "batch", "-n", "60", "-c", "8", "-batch-size", "50",
			"-zipf", "1.2", "-sample", "64", "-p99-max", batchP99Max, "-bench", bench)
		best = max(best, benchValue(out, bench, "req/s"))
	}
	return best
}

// p99 is the nearest-rank 99th percentile of xs.
func p99(xs []int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[max(1, len(xs)*99/100)-1]
}
