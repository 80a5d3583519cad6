package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const (
	streamArticles = 120 // sampled links whose articles get watched
	streamTickDays = 150
	streamTickStep = 15
	streamTimeout  = 60 * time.Second // budget for each stream read
)

type entry struct {
	Seq           int64    `json:"seq"`
	URL           string   `json:"url"`
	Old           string   `json:"old"`
	New           string   `json:"new"`
	Suspect       bool     `json:"suspect"`
	Articles      []string `json:"articles"`
	EmittedUnixNs int64    `json:"emitted_unix_ns"`
}

type frame struct {
	id          int64
	event, data string
}

// stream boots permadeadd over a fully flaky universe whose fault
// windows extend far past the study day, asserts the monitor's SSE
// contract with IABot repairs on and a journal on disk, then benches
// SSE fan-out on a fresh server.
func stream() {
	flaky := []string{"-scale", "0.06", "-flaky", "1", "-flaky-rate", "0.7",
		"-flaky-stream-days", "3650", "-monitor-ttl", "7"}
	journal := filepath.Join(workdir, "journal.ndjson")
	p := start("stream", "permadeadd", append(flaky, "-repair", "-journal", journal)...)
	requireMetrics(p, "monitor", "iabot")
	streamContract(p)
	require5xxFree(p)
	p.stop()

	// The journal survives the server: one flip per NDJSON line,
	// flushed on shutdown.
	b, err := os.ReadFile(journal)
	if err != nil || len(b) == 0 {
		fail("journal file is empty after a run full of flips (%v)", err)
	}
	var first entry
	line, _, _ := bytes.Cut(b, []byte("\n"))
	if err := json.Unmarshal(line, &first); err != nil || first.Seq != 1 {
		fail("journal does not start at seq 1 (%v)", err)
	}
	fmt.Printf("journal OK: %d flips on disk\n", bytes.Count(b, []byte("\n")))

	p = start("stream-bench", "permadeadd", flaky...)
	loadgen(p.addr, "-workload", "stream", "-c", "8", "-sample", "64",
		"-tick-days", "150", "-tick-step", "15", "-p99-max", streamP99Max, "-bench", "StreamDelivery")
	require5xxFree(p)
	p.stop()
}

// streamContract watches the sampled articles, subscribes to
// /v1/stream/verdicts, drives the sim clock across fault-window
// boundaries, and checks that flips run both ways with a suspect dead
// verdict, that the live stream delivered seqs 1..N exactly once and in
// order, that Last-Event-ID = N/2 replays exactly N/2+1..N, and that
// the IABot loop edited a flipped article's wikitext.
func streamContract(p *proc) {
	titles := sampleTitles(p, streamArticles)
	var wr struct {
		WatchedLinks int `json:"watched_links"`
	}
	postJSON(p.url("/v1/watch"), map[string]any{"articles": titles}, &wr)
	if wr.WatchedLinks == 0 {
		fail("watched %d articles but the monitor tracks 0 links", len(titles))
	}
	fmt.Printf("watching %d links across %d articles\n", wr.WatchedLinks, len(titles))

	// Subscribe before any flips exist: ticking before the subscription
	// registers would turn early flips into replay, not live delivery.
	// Ticks run re-checks synchronously, so after the last tick the
	// journal is complete.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frames := openStream(ctx, p, 0)
	var n int64
	for spent := 0; spent < streamTickDays; spent += streamTickStep {
		var tr struct {
			Stats struct {
				JournalEntries int64 `json:"journal_entries"`
			} `json:"stats"`
		}
		postJSON(p.url("/v1/sim/tick"), map[string]int{"days": streamTickStep}, &tr)
		n = tr.Stats.JournalEntries
	}
	if n == 0 {
		fail("no verdict flips after %d sim days (is the universe flaky?)", streamTickDays)
	}

	live := collect(frames, 1, n, "live stream")
	var toDead, toAlive, suspect int
	for _, e := range live {
		switch e.New {
		case "dead":
			toDead++
			if e.Suspect {
				suspect++
			}
		case "alive":
			toAlive++
		}
		if e.EmittedUnixNs == 0 {
			fail("live event seq %d carries no emission stamp", e.Seq)
		}
		if len(e.Articles) == 0 {
			fail("flip seq %d names no citing articles", e.Seq)
		}
	}
	if toDead == 0 || toAlive == 0 {
		fail("flips are one-directional: %d to dead, %d to alive (fault windows should open and close)", toDead, toAlive)
	}
	if suspect == 0 {
		fail("no dead verdict was flagged suspect despite fault windows")
	}
	fmt.Printf("live stream OK: seqs 1..%d exactly once (%d to dead, %d to alive, %d suspect)\n",
		n, toDead, toAlive, suspect)

	// Resume from the midpoint: exactly N/2+1..N, replayed (no stamp).
	k := n / 2
	for _, e := range collect(openStream(ctx, p, k), k+1, n, "resumed stream") {
		if e.EmittedUnixNs != 0 {
			fail("replayed event seq %d carries a live emission stamp", e.Seq)
		}
	}
	fmt.Printf("resume OK: Last-Event-ID %d replayed exactly %d..%d\n", k, k+1, n)
	checkRepair(p, live)
}

// openStream subscribes to /v1/stream/verdicts after lastSeq. It
// returns once the server has accepted the subscription; a goroutine
// then parses SSE frames onto the channel until ctx ends or the
// connection closes.
func openStream(ctx context.Context, p *proc, lastSeq int64) <-chan frame {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url("/v1/stream/verdicts"), nil)
	if err != nil {
		fail("%v", err)
	}
	if lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastSeq, 10))
	}
	resp, err := http.DefaultClient.Do(req) // no timeout: the stream is long-lived
	if err != nil {
		fail("opening stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		fail("stream returned %d", resp.StatusCode)
	}
	// Sized to hold a whole run's flips, so the parser rarely waits on
	// the collector.
	ch := make(chan frame, 4096)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		var f frame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if f.event != "" || f.data != "" {
					select {
					case ch <- f:
					case <-ctx.Done():
						return
					}
				}
				f = frame{}
			case strings.HasPrefix(line, "id: "):
				f.id, _ = strconv.ParseInt(line[4:], 10, 64)
			case strings.HasPrefix(line, "event: "):
				f.event = line[7:]
			case strings.HasPrefix(line, "data: "):
				f.data = line[6:]
			}
		}
	}()
	return ch
}

// collect reads the verdict frames for seqs from..to and asserts they
// arrive exactly once, in order, each a real flip whose frame id
// matches its payload.
func collect(ch <-chan frame, from, to int64, what string) []entry {
	var out []entry
	deadline := time.After(streamTimeout)
	for seq := from; seq <= to; seq++ {
		var f frame
		var ok bool
		select {
		case f, ok = <-ch:
		case <-deadline:
			fail("%s timed out with %d of %d events", what, len(out), to-from+1)
		}
		if !ok {
			fail("%s closed after %d of %d events", what, len(out), to-from+1)
		}
		if f.event != "verdict" {
			fail("%s: unexpected frame type %q (data: %s)", what, f.event, f.data)
		}
		var e entry
		if err := json.Unmarshal([]byte(f.data), &e); err != nil {
			fail("%s: bad event payload: %v (%s)", what, err, f.data)
		}
		if e.Seq != f.id || e.Seq != seq {
			fail("%s: frame id %d, payload seq %d, want seq %d (exactly-once, in order)", what, f.id, e.Seq, seq)
		}
		if e.Old == e.New || e.URL == "" {
			fail("%s seq %d is not a flip: old=%q new=%q url=%q", what, e.Seq, e.Old, e.New, e.URL)
		}
		out = append(out, e)
	}
	return out
}

// checkRepair asserts the IABot loop edited at least one article that
// flipped to dead: counted in /metrics, visible in the wikitext.
func checkRepair(p *proc, live []entry) {
	edited := metricSum(p, "repairs_edited")
	if edited == 0 {
		fail("/metrics reports repairs_edited = 0")
	}
	for _, e := range live {
		if e.New != "dead" {
			continue
		}
		for _, title := range e.Articles {
			var ar struct {
				Text string `json:"text"`
			}
			getJSON(p.url("/v1/sim/article?title="+url.QueryEscape(title)), &ar)
			if strings.Contains(ar.Text, "archive-url=") || strings.Contains(ar.Text, "{{Dead link") {
				fmt.Printf("repair OK: %.0f edits, %q carries a rescue mark\n", edited, title)
				return
			}
		}
	}
	fail("%.0f repairs counted but no flipped article carries archive-url or {{Dead link}}", edited)
}

// sampleTitles returns the distinct articles citing the first n
// sampled links.
func sampleTitles(p *proc, n int) []string {
	var sr struct {
		Articles []string `json:"articles"`
	}
	getJSON(p.url(fmt.Sprintf("/v1/sample?n=%d&articles=1", n)), &sr)
	seen := make(map[string]bool)
	var titles []string
	for _, a := range sr.Articles {
		if !seen[a] {
			seen[a] = true
			titles = append(titles, a)
		}
	}
	if len(titles) == 0 {
		fail("/v1/sample returned no article titles")
	}
	return titles
}
