// Command perfbench is the repository's benchmark: one process that
// generates a paper-scale universe from a seed, saves it in the paged
// on-disk format, opens it the way permadeadd -load does, drives one
// named workload for a fixed wall-clock window, checks every output
// against a study run on the unsaved universe, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 30 --trace 0
//
// Workloads (see workloads below for why each exists): study,
// serve-uniform, serve-churn. --trace 0 prints the end-to-end metrics;
// --trace 1 records spans around the benchmark's calls into each
// module, writes them to <dir>/trace-<workload>.ndjson, and prints the
// per-layer metrics with the end-to-end metric each should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/persist"
	"permadead/internal/simweb"
	"permadead/internal/worldgen"
)

var workloads = map[string]string{
	"study":         "a researcher's batch run: core.Study.Run on a fresh Study (cold memo) per repetition; no HTTP or service cache on the path",
	"serve-uniform": "two keep-alive bots classify every sampled link round-robin; the pool is 2.4x the response cache, so positive verdicts always recompute",
	"serve-churn":   "zipf classify reads on one connection beside wiki edits and 1-day monitor ticks on the other: cache hits, re-checks, edits and the feed together",
}

func main() {
	var (
		workload = flag.String("workload", "", "study, serve-uniform or serve-churn")
		seed     = flag.Int64("seed", 1, "seed for the generated universe, sampling, zipf draws and edits")
		seconds  = flag.Int("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
		dir      = flag.String("dir", ".bench_build", "scratch directory for the saved universe and the span file")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown -workload %q (want study, serve-uniform or serve-churn)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		dir:      *dir,
		out:      newResult(),
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := r.execute(); err != nil {
		fatalf("%s: %v", *workload, err)
	}
	r.print()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	dir      string
	tr       *tracer // nil: untraced
	out      *result

	in *input
}

func (r *run) traced() bool { return r.tr != nil }

func (r *run) execute() error {
	in, err := makeInput(r.dir, r.seed)
	if err != nil {
		return err
	}
	defer os.Remove(in.path)
	r.in = in
	r.out.layer("worldgen.Generate_s", in.genS, "s", 1)
	r.out.layer("persist.SavePaged_s", in.saveS, "s", 1)

	switch r.workload {
	case "study":
		err = r.runStudy()
	default:
		err = r.runServe()
	}
	if err != nil {
		return err
	}
	if r.traced() {
		path := filepath.Join(r.dir, "trace-"+r.workload+".ndjson")
		if err := r.tr.writeFile(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", r.tr.len(), path)
	}
	return nil
}

// input is everything generated from the seed before any measurement:
// the saved universe and the reference answers from a study run on the
// in-memory (never saved) universe.
type input struct {
	path  string
	cfg   core.Config
	links []link
	// refHash is the SHA-256 of the reference Report.Render().
	refHash     [32]byte
	genS, saveS float64
	verdictOf   map[string]core.Verdict // reference verdict by URL
	articles    []string                // distinct citing articles, in link order
}

// link is one sampled link with its reference verdict. Strings are
// cloned so they do not pin the generated universe in memory.
type link struct {
	URL, Article string
	Verdict      core.Verdict
}

// studyConfig is the study configuration permadeadd and deadlinkstudy
// use for a loaded universe: every category article, the universe's
// sample size, and the seed.
func studyConfig(seed int64, sampleSize int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.SampleSize = sampleSize
	cfg.CrawlArticles = 0
	return cfg
}

func makeInput(dir string, seed int64) (*input, error) {
	p := worldgen.DefaultParams() // scale 1.0, no fault windows
	p.Seed = seed
	t0 := time.Now()
	u := worldgen.Generate(p)
	in := &input{genS: time.Since(t0).Seconds()}
	b := persist.FromUniverse(u)

	in.path = filepath.Join(dir, fmt.Sprintf("universe-%d.pdu", seed))
	t0 = time.Now()
	if err := savePaged(in.path, b); err != nil {
		return nil, err
	}
	in.saveS = time.Since(t0).Seconds()

	in.cfg = studyConfig(seed, b.Params.SampleSize)
	ref := &core.Study{
		Config: in.cfg,
		Wiki:   b.Wiki,
		Arch:   b.Archive,
		Client: fetch.New(simweb.NewTransport(b.World, in.cfg.StudyTime)),
		Ranks:  b.World,
	}
	rep, err := ref.Run(context.Background())
	if err != nil {
		os.Remove(in.path)
		return nil, fmt.Errorf("reference study: %w", err)
	}
	in.refHash = sha256.Sum256([]byte(rep.Render()))
	in.verdictOf = make(map[string]core.Verdict, len(rep.Records))
	seen := make(map[string]bool)
	for i, rec := range rep.Records {
		in.links = append(in.links, link{
			URL:     strings.Clone(rec.URL),
			Article: strings.Clone(rec.Article),
			Verdict: rep.Verdicts[i],
		})
		in.verdictOf[in.links[i].URL] = rep.Verdicts[i]
		if !seen[rec.Article] {
			seen[rec.Article] = true
			in.articles = append(in.articles, in.links[i].Article)
		}
	}
	// The generated universe is input, not the system under test: it is
	// unreachable from here on, so collect it and return its pages.
	debug.FreeOSMemory()
	return in, nil
}

func savePaged(path string, b *persist.Bundle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := persist.SavePaged(f, b); err != nil {
		f.Close()
		return fmt.Errorf("saving universe: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("saving universe: %w", err)
	}
	return nil
}

// openStudy opens the saved universe and freezes its archive: the
// study workload's set-up.
func openStudy(path string) (*persist.Bundle, float64, error) {
	t0 := time.Now()
	b, err := persist.OpenPaged(path)
	if err != nil {
		return nil, 0, fmt.Errorf("opening universe: %w", err)
	}
	openS := time.Since(t0).Seconds()
	b.Archive.Freeze()
	return b, openS, nil
}

// newStudy builds a Study over b the way deadlinkstudy does. With a
// tracer, the simulated web's transport is wrapped to record a span per
// round trip, and the wrapper is returned.
func newStudy(b *persist.Bundle, cfg core.Config, tr *tracer) (*core.Study, *timingTransport) {
	base := simweb.NewTransport(b.World, cfg.StudyTime)
	s := &core.Study{Config: cfg, Wiki: b.Wiki, Arch: b.Archive, Ranks: b.World}
	if tr == nil {
		s.Client = fetch.New(base)
		return s, nil
	}
	tt := &timingTransport{next: base, tr: tr}
	tt.parent.Store(-1)
	s.Client = fetch.New(tt)
	return s, tt
}

// --- result ---

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects both metric families; print emits the family the
// run's mode asks for.
type result struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	e2eM      map[string]metric
	layerM    map[string]metric
	samples   map[string]int
}

func newResult() *result {
	return &result{e2eM: map[string]metric{}, layerM: map[string]metric{}, samples: map[string]int{}}
}

func (o *result) e2e(name string, v float64, unit string, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.e2eM[name] = metric{v, unit}
	o.samples[name] = n
}

func (o *result) layer(name string, v float64, unit string, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.layerM[name] = metric{v, unit}
	o.samples[name] = n
}

// succeeded counts n operations that were attempted and passed their
// checks.
func (o *result) succeeded(n int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += n
}

// fail records one failed operation with its reason (the first few
// reasons are printed).
func (o *result) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) print() {
	o := r.out
	metrics := o.e2eM
	if r.traced() {
		metrics = o.layerM
	}
	for _, f := range o.failures {
		fmt.Printf("FAIL: %s\n", f)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %s\nseed %d, window %s, trace %v\n", r.workload, workloads[r.workload], r.seed, r.window, r.traced())
	for _, n := range names {
		m := metrics[n]
		line := fmt.Sprintf("  %-40s %14.6g %-6s n=%d", n, m.Value, m.Unit, o.samples[n])
		if r.traced() {
			line += "  " + predictionFor(n)
		}
		fmt.Println(line)
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("  %-40s %14.6g (failed %d of %d attempted)\n", "failed_frac", frac, o.failed, o.attempted)

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// --- memory ---

// recordRSS records as rss_mb the resident set the process keeps after
// a timed window, once a forced collection has returned free pages to
// the OS: the workload's footprint (live heap, caches, the universe
// pages it touched) without the collector's headroom, whose size
// depends on when the last cycle happened to run.
func recordRSS(out *result) {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rss := float64(rssBytes()) / (1 << 20)
	fmt.Printf("rss: %.1f MB retained; live heap %.1f MB, runtime total %.1f MB\n", rss, float64(ms.HeapAlloc)/(1<<20), float64(ms.Sys)/(1<<20))
	out.e2e("rss_mb", rss, "MB", 1)
}

func rssBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
