package main

import (
	"context"
	"crypto/sha256"
	"runtime"
	"time"

	"permadead/internal/archive"
	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/persist"
	"permadead/internal/redircheck"
	"permadead/internal/softerror"
	"permadead/internal/urlutil"
)

// studySetupBatch is how many times the study workload opens the
// universe before its first run and again after the collection that
// starts each later run; setup_s is the median over every opening.
// Opening takes about 0.1 ms, so a batch passes in a few milliseconds,
// during which the shared host's speed can sit a fifth off its mean;
// batches spread over the whole window sample that drift instead of one
// moment of it.
const studySetupBatch = 60

// minStudyPairs is the fewest Run/staged pairs a traced study phase
// makes, so core.stage_sum_ratio is a median even in serve runs.
const minStudyPairs = 3

// typoScanLimit mirrors core's per-domain typo enumeration cap, so the
// replayed DomainURLs call asks for what the typo probe asks for.
const typoScanLimit = 4000

func (r *run) runStudy() error {
	var setups, opens []float64
	// setupBatch opens the universe studySetupBatch times, keeping the
	// first bundle it opens when b is nil.
	var b *persist.Bundle
	setupBatch := func() error {
		for i := 0; i < studySetupBatch; i++ {
			t0 := time.Now()
			nb, openS, err := openStudy(r.in.path)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			opens = append(opens, openS)
			if b == nil {
				b = nb
			} else {
				nb.Close()
			}
		}
		return nil
	}
	if err := setupBatch(); err != nil {
		return err
	}
	defer b.Close()

	if r.traced() {
		r.out.layer("persist.OpenPaged_s", median(opens), "s", len(opens))
		r.replay(r.studyPhase(b, r.window))
		return r.serveProbes()
	}

	var lat []float64
	var busy time.Duration
	var allocs uint64
	for busy < r.window {
		if len(lat) > 0 {
			runtime.GC() // like the first batch, openings start from a collected heap
			if err := setupBatch(); err != nil {
				return err
			}
		}
		runtime.GC() // every repetition starts from a collected heap
		s, _ := newStudy(b, r.in.cfg, nil)
		m0 := mallocs()
		t0 := time.Now()
		rep, err := s.Run(context.Background())
		d := time.Since(t0)
		allocs += mallocs() - m0
		busy += d
		lat = append(lat, float64(d)/1e6)
		r.checkReport("study run", rep, err)
	}
	recordRSS(r.out)
	r.out.e2e("setup_s", median(setups), "s", len(setups))
	r.out.layer("persist.OpenPaged_s", median(opens), "s", len(opens))
	l := summarize(lat)
	r.out.e2e("op_p50_ms", l.p50, "ms", l.n)
	r.out.e2e("op_tail_ms", l.tail, "ms", l.n)
	r.out.e2e("ops_per_s", float64(len(lat))/busy.Seconds(), "1/s", l.n)
	r.out.e2e("allocs_per_op", float64(allocs)/float64(len(lat)), "count", l.n)
	return nil
}

// checkReport counts one study run, failing it on an error or a report
// that renders differently from the reference.
func (r *run) checkReport(what string, rep *core.Report, err error) {
	switch {
	case err != nil:
		r.out.fail("%s: %v", what, err)
	case sha256.Sum256([]byte(rep.Render())) != r.in.refHash:
		r.out.fail("%s: report differs from the in-memory reference", what)
	default:
		r.out.succeeded(1)
	}
}

// stagedStudy is the harness-built Study of the traced study phase,
// kept (with its warm memo and records) for the per-verdict replay.
type stagedStudy struct {
	s       *core.Study
	tt      *timingTransport
	records []core.LinkRecord
}

// studyPhase alternates, for at least budget, a timed Run on a fresh
// Study with a fresh Study whose five exported stages are called one
// by one in Run's order, each inside its own span. Round trips to the
// simulated web are spans under whichever stage issued them.
func (r *run) studyPhase(b *persist.Bundle, budget time.Duration) *stagedStudy {
	tr := r.tr
	stages := []string{"core.Collect", "core.LiveCheck", "core.ArchiveAnalysis", "core.TemporalAnalysis", "core.SpatialAnalysis"}
	var runS, sumS, roundtrips, roundtripS []float64
	stageS := make(map[string][]float64)
	var liveSelf []float64
	var last *stagedStudy
	start := time.Now()
	for i := 0; i < minStudyPairs || time.Since(start) < budget; i++ {
		runtime.GC()
		s, tt := newStudy(b, r.in.cfg, tr)
		id := tr.begin("core.Study.Run", -1, int64(i))
		tt.parent.Store(int64(id))
		rep, err := s.Run(context.Background())
		tr.end(id)
		r.checkReport("traced study run", rep, err)
		spans := tr.snapshot()
		runS = append(runS, float64(spans[id].End-spans[id].Start)/1e9)
		var n, busy float64
		for _, sp := range spans[id+1:] {
			if sp.Parent == id && sp.Name == "simweb.RoundTrip" {
				n++
				busy += float64(sp.End-sp.Start) / 1e9
			}
		}
		roundtrips = append(roundtrips, n)
		roundtripS = append(roundtripS, busy)

		runtime.GC()
		s, tt = newStudy(b, r.in.cfg, tr)
		root := tr.begin("core.stages", -1, int64(i))
		ids := make(map[string]int, len(stages))
		call := func(name string, fn func()) {
			ids[name] = tr.begin(name, root, int64(i))
			tt.parent.Store(int64(ids[name]))
			fn()
			tr.end(ids[name])
			tt.parent.Store(int64(root))
		}
		var rep2 *core.Report
		var recs []core.LinkRecord
		call("core.Collect", func() { recs = s.Collect() })
		rep2 = &core.Report{Config: s.Config, Records: recs}
		s.DatasetStats(rep2) // part of Run, but not one of the five measured stages
		var lerr error
		call("core.LiveCheck", func() { lerr = s.LiveCheck(context.Background(), rep2) })
		call("core.ArchiveAnalysis", func() { s.ArchiveAnalysis(rep2) })
		call("core.TemporalAnalysis", func() { s.TemporalAnalysis(rep2) })
		call("core.SpatialAnalysis", func() { s.SpatialAnalysis(rep2) })
		tr.end(root)
		r.checkReport("staged study run", rep2, lerr)

		spans = tr.snapshot()
		self := selfTimes(spans)
		var sum float64
		for _, name := range stages {
			d := float64(spans[ids[name]].End-spans[ids[name]].Start) / 1e9
			stageS[name] = append(stageS[name], d)
			sum += d
		}
		sumS = append(sumS, sum)
		liveSelf = append(liveSelf, float64(self[ids["core.LiveCheck"]])/1e9)
		last = &stagedStudy{s: s, tt: tt, records: recs}

		if i == 0 {
			ms := s.Memo().Stats()
			r.out.layer("archive.memo_hit_ratio", float64(ms.Hits)/float64(ms.Hits+ms.Misses), "ratio", int(ms.Hits+ms.Misses))
			r.out.layer("core.typo_scan_truncated", float64(rep2.TypoScanTruncated), "count", 1)
		}
	}
	n := len(runS)
	r.out.layer("core.Run_s", median(runS), "s", n)
	for _, name := range stages {
		r.out.layer(name+"_s", median(stageS[name]), "s", n)
	}
	r.out.layer("core.stage_sum_ratio", median(sumS)/median(runS), "ratio", n)
	r.out.layer("core.LiveCheck_self_s", median(liveSelf), "s", n)
	r.out.layer("simweb.roundtrips", median(roundtrips), "count", n)
	r.out.layer("simweb.roundtrip_s", median(roundtripS), "s", n)
	return last
}

// replay times the per-verdict calls one /v1/classify makes, on the
// staged Study (warm memo), over every sampled link in serve-uniform's
// order. Each call is its own span under a per-link root; round trips
// to the simulated web are spans under the call that issued them.
func (r *run) replay(st *stagedStudy) {
	tr, s, tt := r.tr, st.s, st.tt
	ctx := context.Background()
	memo := s.Memo()
	checker := redircheck.NewChecker(memo)
	var never []int
	var classify []int
	timed := func(name string, root int, req int64, fn func()) int {
		id := tr.begin(name, root, req)
		tt.parent.Store(int64(id))
		fn()
		tr.end(id)
		return id
	}
	for i, rec := range st.records {
		req := int64(i)
		root := tr.begin("replay.link", -1, req)
		var c core.Classification
		var cerr error
		id := timed("core.ClassifyLink", root, req, func() { c, cerr = s.ClassifyLink(ctx, rec) })
		want, sampled := r.in.verdictOf[rec.URL]
		switch {
		case cerr != nil:
			r.out.fail("replay ClassifyLink %s: %v", rec.URL, cerr)
		case !sampled:
			r.out.fail("replay: %s is not in the reference sample", rec.URL)
		case c.Verdict != want:
			r.out.fail("replay ClassifyLink %s: verdict %s, study says %s", rec.URL, c.Verdict, want)
		default:
			r.out.succeeded(1)
		}
		classify = append(classify, id)
		if c.Archive.NeverArchived {
			never = append(never, id)
		}
		timed("core.CheckLive", root, req, func() { _, _ = s.CheckLive(ctx, rec.URL) })
		var res fetch.Result
		timed("fetch.Fetch", root, req, func() { res = s.Client.Fetch(ctx, rec.URL) })
		if res.Category == fetch.Cat200 {
			timed("softerror.Check", root, req, func() { softerror.NewDetector(s.Client).Check(ctx, res.URL, res) })
		}
		var pre []archive.Snapshot
		timed("archive.SnapshotsBetween", root, req, func() { pre = s.Arch.SnapshotsBetween(rec.URL, 0, rec.Marked) })
		if redirectOnly(pre) {
			timed("redircheck.FindValidatedCopy", root, req, func() { checker.FindValidatedCopy(rec.URL, rec.Marked) })
		}
		if c.Archive.NeverArchived {
			timed("archive.Memo.DomainURLs", root, req, func() { memo.DomainURLs(urlutil.Domain(rec.URL), typoScanLimit) })
		}
		tr.end(root)
	}
	tt.parent.Store(-1)

	spans := tr.snapshot()
	self := selfTimes(spans)
	us := func(ids []int, useSelf bool) []float64 {
		out := make([]float64, len(ids))
		for k, id := range ids {
			d := spans[id].End - spans[id].Start
			if useSelf {
				d = self[id]
			}
			out[k] = float64(d) / 1e3
		}
		return out
	}
	put := func(name string, xs []float64) { r.out.layer(name, median(xs), "us", len(xs)) }
	put("core.ClassifyLink_us", us(classify, false))
	put("core.ClassifyLink_self_us", us(classify, true))
	put("core.ClassifyLink_never_archived_us", us(never, false))
	for _, name := range []string{"core.CheckLive", "fetch.Fetch", "softerror.Check", "archive.SnapshotsBetween", "redircheck.FindValidatedCopy", "archive.Memo.DomainURLs"} {
		xs := durationsOf(spans, nil, name, 0)
		if len(xs) == 0 {
			r.out.fail("replay: no %s calls on this universe", name)
			continue
		}
		put(name+"_us", xs)
	}
}

// redirectOnly reports whether a pre-mark history holds a redirect
// capture but no initial-200 one: the §4.2 case in which the pipeline
// runs redirect validation.
func redirectOnly(pre []archive.Snapshot) bool {
	redirect := false
	for _, sn := range pre {
		if sn.InitialStatus == 200 {
			return false
		}
		if sn.IsRedirect() {
			redirect = true
		}
	}
	return redirect
}
