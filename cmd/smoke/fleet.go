package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"permadead/internal/urlutil"
)

var quick = &http.Client{Timeout: 10 * time.Second} // degraded-mode answers must come promptly

// shardFlags run every shard and the standalone reference with
// worker-bound capacity, so fleet scaling is measured over the
// live-latency floor.
var shardFlags = []string{"-no-monitor", "-classify-workers", "1", "-live-latency", shardLiveLatency,
	"-cache-entries", "0", "-neg-cache-entries", "0"}

// bootFleet starts n shards over the universe file and a router over
// them; the router is the last element.
func bootFleet(universe string, n int) []*proc {
	var names, spec []string
	for i := 1; i <= n; i++ {
		names = append(names, fmt.Sprintf("s%d", i))
	}
	var fleet []*proc
	for _, name := range names {
		s := start(name, "permadeadd", append([]string{"-load", universe,
			"-shard-name", name, "-shard-members", strings.Join(names, ",")}, shardFlags...)...)
		fleet = append(fleet, s)
		spec = append(spec, name+"="+s.addr)
	}
	return append(fleet, start("router", "permadead-router", "-members", strings.Join(spec, ",")))
}

// shard boots router+shard fleets over one paged universe and checks
// verdict parity with a standalone server, scatter-gather totals, a
// rebalance round trip, degraded mode with a shard killed, and
// classify scaling from 1 to 4 shards.
func shard() {
	universe := filepath.Join(workdir, "u.pduniv")
	run("worldgen", "-scale", universeScale, "-save", universe, "-shards", "4")
	var manifest any
	if b, err := os.ReadFile(universe + ".fleet.json"); err != nil || json.Unmarshal(b, &manifest) != nil ||
		len(jsonValues(manifest, "owned_links")) == 0 {
		fail("worldgen -shards wrote no fleet manifest with owned_links (%v)", err)
	}

	fleet := bootFleet(universe, 4)
	router := fleet[4]
	solo := start("solo", "permadeadd", append([]string{"-load", universe}, shardFlags...)...)
	var health struct{ Status string }
	if getJSON(router.url("/healthz"), &health); health.Status != "ok" {
		fail("fleet /healthz status %q", health.Status)
	}

	urls := sample(solo, 24)
	owner := map[string]string{}
	for _, u := range urls {
		owner[u] = classifyParity(router, solo, u)
	}
	fmt.Printf("verdict parity: %d/%d byte-identical\n", len(urls), len(urls))

	var soloSample, fleetSample struct{ Total int }
	getJSON(solo.url("/v1/sample?n=1"), &soloSample)
	getJSON(router.url("/v1/sample?n=1"), &fleetSample)
	if soloSample.Total != fleetSample.Total {
		fail("fleet total %d != standalone total %d", fleetSample.Total, soloSample.Total)
	}

	// Rebalance round trip: move a link's ring key (its registrable
	// domain) to s2 and back, checking the serving shard and the verdict
	// after each move.
	moved := ""
	for _, u := range urls {
		if owner[u] != "s2" {
			moved = u
			break
		}
	}
	if moved == "" {
		fail("every sampled link already lives on s2")
	}
	dom := urlutil.Domain(moved)
	for _, to := range []string{"s2", owner[moved]} {
		var res struct{ To string }
		postJSON(router.url("/admin/rebalance"), map[string]string{"domain": dom, "to": to}, &res)
		if res.To != to {
			fail("rebalance %s to %s answered to=%q", dom, to, res.To)
		}
		var ring any
		if getJSON(router.url("/admin/ring"), &ring); len(jsonValues(ring, "generation")) == 0 {
			fail("/admin/ring after rebalance lacks a generation")
		}
		if got := classifyParity(router, solo, moved); got != to {
			fail("after moving %s to %s, %s was served by %q", dom, to, moved, got)
		}
	}
	fmt.Printf("rebalance handoff OK (%s -> s2 -> %s)\n", dom, owner[moved])

	// Degraded mode: with s4 stopped every link answers promptly — 200
	// from healthy shards, 503 with Retry-After and a shard error code
	// for the dead one — and the scattered sample flags partial.
	fleet[3].stop()
	alive, dead := 0, 0
	for _, u := range urls {
		code, h, body := get(quick, classifyURL(router, u))
		switch code {
		case http.StatusOK:
			alive++
		case http.StatusServiceUnavailable:
			if h.Get("Retry-After") == "" {
				fail("503 for %s carries no Retry-After", u)
			}
			var e struct{ Error struct{ Code string } }
			if json.Unmarshal(body, &e); e.Error.Code != "shard_down" && e.Error.Code != "shard_unreachable" {
				fail("503 for %s lacks a shard error code: %s", u, body)
			}
			dead++
		default:
			fail("classify %s answered %d with a shard down", u, code)
		}
	}
	if dead == 0 || alive == 0 {
		fail("degraded mode: %d healthy answers, %d flagged 503s; need at least one of each", alive, dead)
	}
	code, h, body := get(client, router.url("/v1/sample?n=5"))
	var partial struct {
		Partial       bool     `json:"partial"`
		MissingShards []string `json:"missing_shards"`
	}
	if json.Unmarshal(body, &partial); code != http.StatusOK || !partial.Partial || strings.Join(partial.MissingShards, ",") != "s4" || h.Get("Retry-After") == "" {
		fail("degraded sample (%d) not flagged partial naming s4 with Retry-After: %s", code, body)
	}
	fmt.Printf("degraded mode: %d healthy answers, %d flagged 503s, scatter flags s4\n", alive, dead)
	for _, p := range []*proc{router, fleet[0], fleet[1], fleet[2], solo} {
		p.stop()
	}

	// Scaling: classify throughput at 1, 2, and 4 shards.
	rps := map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		fleet := bootFleet(universe, n)
		bench := fmt.Sprintf("Fleet%dShard", n)
		out := loadgen(fleet[n].addr, "-workload", "fleet", "-n", shardRequests, "-c", "32",
			"-sample", "64", "-scatter", "30", "-bench", bench)
		rps[n] = benchValue(out, bench+"Classify", "req/s")
		for _, p := range fleet {
			p.stop()
		}
	}
	speedup := rps[4] / rps[1]
	fmt.Printf("classify scaling 1->4 shards: %.1f -> %.1f req/s (%.2fx)\n", rps[1], rps[4], speedup)
	if speedup < shardScalingMin {
		fail("4-shard classify throughput only %.2fx the 1-shard figure (need >= %.1fx)", speedup, shardScalingMin)
	}
}

// classifyParity requires the fleet's verdict for u to match the
// standalone server's byte for byte and returns the serving shard.
func classifyParity(router, solo *proc, u string) string {
	want := getOK(classifyURL(solo, u))
	code, h, got := get(client, classifyURL(router, u))
	if code != http.StatusOK || !bytes.Equal(got, want) {
		fail("fleet verdict for %s (%d) differs from standalone:\nfleet: %s\nsolo:  %s", u, code, got, want)
	}
	return h.Get("X-Fleet-Shard")
}

// fed boots a federation-less server, a single-member federation and
// a 3-member federation over one paged universe and checks byte
// parity, usable coverage gain, the hedged p99 bound, degraded mode
// with a member down, and the per-scenario false-dead grid.
func fed() {
	universe := filepath.Join(workdir, "u.pduniv")
	run("worldgen", "-scale", universeScale, "-save", universe, "-archives", "3")
	var manifest struct{ Members []struct{ Name string } }
	if b, err := os.ReadFile(universe + ".archives.json"); err != nil || json.Unmarshal(b, &manifest) != nil ||
		len(manifest.Members) == 0 || manifest.Members[0].Name != "wayback" {
		fail("worldgen -archives wrote no federation manifest led by wayback (%v)", err)
	}
	single := filepath.Join(workdir, "single.archives.json")
	if err := os.WriteFile(single, []byte(`{"members":[{"name":"wayback"}]}`), 0o644); err != nil {
		fail("%v", err)
	}
	common := []string{"-load", universe, "-no-monitor", "-cache-entries", "0", "-neg-cache-entries", "0"}
	bare := start("bare", "permadeadd", common...)
	one := start("single", "permadeadd", append(common, "-archives", single)...)
	three := start("fed", "permadeadd", append(common, "-archives", universe+".archives.json")...)

	urls := sample(bare, fedURLs)
	for _, u := range urls[:min(24, len(urls))] {
		q := url.QueryEscape(u)
		for _, path := range []string{"/v1/availability?url=" + q, "/v1/availability?url=" + q + "&accept=any&timeout=200ms", "/v1/classify?url=" + q} {
			if !bytes.Equal(getOK(bare.url(path)), getOK(one.url(path))) {
				fail("single-member federation diverged from bare archive on %s", path)
			}
		}
	}

	var info struct {
		UsableGain int `json:"usable_gain"`
		Stats      struct {
			HedgesFired int `json:"hedges_fired"`
		} `json:"stats"`
		Members []struct{ Down bool }
	}
	if getJSON(three.url("/v1/federation/info"), &info); info.UsableGain < usableGainMin {
		fail("3-member federation adds no usable coverage (gain %d)", info.UsableGain)
	}

	// Hedging: the federated p99 simulated lookup latency stays within
	// hedgedP99MaxFactor of the bare archive's over the same links.
	latency := func(lats []int64, target string) []int64 {
		var a struct {
			LatencyMS *int64 `json:"lookup_latency_ms"`
		}
		if getJSON(target, &a); a.LatencyMS != nil {
			lats = append(lats, *a.LatencyMS)
		}
		return lats
	}
	var bareLat, fedLat []int64
	for _, u := range urls {
		q := "/v1/availability?url=" + url.QueryEscape(u)
		bareLat, fedLat = latency(bareLat, bare.url(q)), latency(fedLat, three.url(q))
	}
	if len(bareLat) == 0 || len(fedLat) == 0 {
		fail("no lookup latencies collected")
	}
	bareP99, fedP99 := p99(bareLat), p99(fedLat)
	if float64(fedP99) > hedgedP99MaxFactor*float64(bareP99) {
		fail("hedged p99 %dms exceeds %.0fx single-archive p99 %dms", fedP99, hedgedP99MaxFactor, bareP99)
	}
	if getJSON(three.url("/v1/federation/info"), &info); info.Stats.HedgesFired < 1 {
		fail("no hedges fired across %d lookups", len(urls))
	}
	fmt.Printf("usable gain %d; hedged lookup p99 %dms vs single-archive %dms; %d hedges fired\n",
		info.UsableGain, fedP99, bareP99, info.Stats.HedgesFired)

	// Degraded mode: one member down, zero 5xx, the loss surfaced.
	var flip struct{ Down bool }
	if postJSON(three.url("/v1/federation/member"), map[string]any{"member": "archive.today", "down": true}, &flip); !flip.Down {
		fail("member down-flip not acknowledged")
	}
	degraded := 0
	for i, u := range urls {
		code, _, body := get(quick, three.url("/v1/availability?url="+url.QueryEscape(u)))
		if code != http.StatusOK {
			fail("availability %s answered %d with a member down", u, code)
		}
		if bytes.Contains(body, []byte("archive.today")) {
			degraded++
		}
		if i < 12 {
			if code, _, _ := get(client, classifyURL(three, u)); code != http.StatusOK {
				fail("classify %s answered %d with a member down", u, code)
			}
		}
	}
	if degraded == 0 {
		fail("no availability answer surfaced the dead member as degraded coverage")
	}
	getJSON(three.url("/v1/federation/info"), &info)
	down := false
	for _, m := range info.Members {
		down = down || m.Down
	}
	if !down {
		fail("/v1/federation/info does not report the down member")
	}
	postJSON(three.url("/v1/federation/member"), map[string]any{"member": "archive.today", "down": false}, nil)
	fmt.Printf("degraded mode: zero 5xx with archive.today down, %d answers flagged the loss\n", degraded)

	loadgen(bare.addr, "-workload", "avail", "-n", fedRequests, "-c", "16", "-sample", "64", "-bench", "SoloAvail")
	loadgen(three.addr, "-workload", "avail", "-n", fedRequests, "-c", "16", "-sample", "64", "-bench", "FedAvail")
	for _, p := range []*proc{bare, one, three} {
		p.stop()
	}

	// The per-scenario × per-policy false-dead grid; ablate gates its
	// shape and exits 1 on a violation.
	grid := run("ablate", "-scale", gridScale, "-seed", "1", "-scenarios")
	cells := strings.Count("\n"+grid, "\nBenchmarkScenario")
	if cells == 0 {
		fail("scenario grid produced no cells:\n%s", grid)
	}
	fmt.Printf("scenario grid OK (%d cells)\n", cells)
}
