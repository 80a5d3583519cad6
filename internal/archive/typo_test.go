package archive

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"permadead/internal/urlutil"
)

// unlimitedDomainURLs is the reference enumeration DomainURLs caps:
// every distinct row URL of the domain's hosts, hosts in sorted order,
// rows as an uncapped CDXList emits them.
func unlimitedDomainURLs(a *Archive, domain string) []string {
	seen := map[string]bool{}
	var out []string
	for _, h := range a.Hosts() {
		if urlutil.DomainOfHost(h) != domain {
			continue
		}
		for _, e := range a.CDXList(CDXQuery{Host: h, Limit: 1 << 30}) {
			if !seen[e.URL] {
				seen[e.URL] = true
				out = append(out, e.URL)
			}
		}
	}
	return out
}

// checkDomainURLs asserts DomainURLs(domain, limit) is the first limit
// URLs of the unlimited enumeration, truncated iff more exist.
func checkDomainURLs(t *testing.T, a *Archive, domain string, limit int) {
	t.Helper()
	all := unlimitedDomainURLs(a, domain)
	want := all[:min(limit, len(all))]
	if len(want) == 0 {
		want = nil
	}
	got, truncated := a.DomainURLs(domain, limit)
	if !reflect.DeepEqual(got, want) || truncated != (len(all) > limit) {
		t.Errorf("DomainURLs(%s, %d) = %v/%v, want %v/%v", domain, limit, got, truncated, want, len(all) > limit)
	}
}

// refDistance is the DP edit distance after stripping the common
// prefix and suffix, which never changes a Levenshtein distance; the
// strip keeps the reference cheap on long URLs sharing a long prefix.
func refDistance(a, b string) int {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	return urlutil.EditDistance(a, b)
}

// bruteNeighbors is the typo probe's reference: the unlimited domain
// enumeration, each URL compared to target with the DP.
func bruteNeighbors(a *Archive, domain, target string) int {
	n := 0
	for _, u := range unlimitedDomainURLs(a, domain) {
		u = u[len("http://"):]
		if d := len(u) - len(target); d > 1 || d < -1 {
			continue // the length gap alone is a distance of 2 or more
		}
		if refDistance(u, target) == 1 {
			n++
		}
	}
	return n
}

// TestDomainURLsCountsDistinctURLs is the cap regression: repeat
// captures of one URL must not use up the limit, which counts distinct
// URLs, and truncated must say whether more distinct URLs exist.
func TestDomainURLsCountsDistinctURLs(t *testing.T) {
	build := func() *Archive {
		a := New()
		for k := 0; k < 10; k++ {
			a.Add(snap("http://a.dup.simtest/x.html", 10+k, 200))
		}
		a.Add(snap("http://a.dup.simtest/y.html", 50, 404))
		for k := 0; k < 3; k++ {
			a.Add(snap(fmt.Sprintf("http://b.dup.simtest/p%d.html", k), 60, 200))
		}
		a.AddBulkCoverage(BulkRegion{Host: "b.dup.simtest", DirPrefix: "/bulk/", Count: 4, FirstDay: d(1), LastDay: d(9), Seed: 3})
		return a
	}
	naive, frozen := build(), build()
	frozen.Freeze()
	for _, a := range []*Archive{naive, frozen} {
		if n := len(unlimitedDomainURLs(a, "dup.simtest")); n != 9 {
			t.Fatalf("fixture holds %d distinct URLs, want 9", n)
		}
		for _, limit := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, math.MaxInt} {
			checkDomainURLs(t, a, "dup.simtest", limit)
		}
	}
}

// TestBulkPathAtMatchesSprintf pins the append-based member formatter
// to the fmt.Sprintf form it replaced, including 7-digit indexes and
// hex suffixes that need zero padding.
func TestBulkPathAtMatchesSprintf(t *testing.T) {
	cases := []struct {
		seed uint64
		i    int
	}{
		{7, 0},
		{7, 190},     // v = 0x00b8
		{7, 1053},    // v = 0x0004
		{7, 999999},  // last 6-digit index
		{7, 1000000}, // first 7-digit index
		{7, 1000723}, // 7 digits, v = 0x000b
		{0xd1d1, 12345678},
	}
	for _, c := range cases {
		r := BulkRegion{Host: "h.simtest", DirPrefix: "/news/2014/", Count: c.i + 1, Seed: c.seed}
		v := mix64(c.seed+uint64(c.i)*0x9e3779b97f4a7c15) & 0xffff
		want := fmt.Sprintf("%sitem-%06d-%04x.html", r.DirPrefix, c.i, v)
		if got := r.PathAt(c.i); got != want {
			t.Errorf("PathAt(%d) seed %d = %q, want %q", c.i, c.seed, got, want)
		}
		if got := string(r.appendMember(nil, c.i)); got != r.Host+want {
			t.Errorf("appendMember(%d) seed %d = %q, want %q", c.i, c.seed, got, r.Host+want)
		}
	}
	r := BulkRegion{Host: "h.simtest", DirPrefix: "/news/2014/", Count: 10, Seed: 1}
	for i, row := range appendBulk(nil, r, CDXQuery{}, 100) {
		if want := "http://h.simtest" + r.PathAt(i); row.URL != want {
			t.Errorf("appendBulk row %d = %q, want %q", i, row.URL, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = r.PathAt(7) }); allocs > 1 {
		t.Errorf("PathAt allocs/op = %.1f, want <= 1", allocs)
	}
}

// neighborWorld builds the fuzz target's archive twice (one frozen):
// two hosts of one domain, three bulk regions — two sharing a
// directory so their index ranges overlap — and explicit rows that
// repeat a capture and sit beside the regions. With memberRow, one
// explicit row also equals the bulk member the probe may derive from.
func neighborWorld(seed uint64, count uint16, leaf string, memberRow bool) (naive, frozen *Archive, member string) {
	regions := []BulkRegion{
		{Host: "fz.simtest", DirPrefix: "/a/", Count: 1 + int(count)%700, Seed: seed},
		{Host: "fz.simtest", DirPrefix: "/a/", Count: 1 + int(count)%37, Seed: seed + 1},
		{Host: "www.fz.simtest", DirPrefix: "/a/", Count: 1 + int(count)%11, Seed: seed ^ 0xff},
	}
	member = "fz.simtest" + regions[0].PathAt(int(count)%regions[0].Count)
	build := func() *Archive {
		a := New()
		for _, r := range regions {
			a.AddBulkCoverage(r)
		}
		if memberRow {
			a.Add(snap("http://"+member, 5, 200))
		}
		a.Add(snap("http://fz.simtest/a/"+leaf, 6, 200))
		a.Add(snap("http://fz.simtest/a/"+leaf, 7, 404))
		a.Add(snap("http://www.fz.simtest/b/"+leaf, 8, 301))
		a.Add(snap("http://other.simtest/a/"+leaf, 9, 200))
		return a
	}
	naive, frozen = build(), build()
	frozen.Freeze()
	return naive, frozen, member
}

// editOnce applies one byte edit to s: op%4 selects keep, replace,
// insert or delete at pos%len.
func editOnce(s string, op, pos uint8, c byte) string {
	if len(s) == 0 {
		return string(c)
	}
	k := int(pos) % len(s)
	switch op % 4 {
	case 1:
		return s[:k] + string(c) + s[k+1:]
	case 2:
		return s[:k] + string(c) + s[k:]
	case 3:
		return s[:k] + s[k+1:]
	}
	return s
}

// FuzzDomainNeighbors differentially tests the exact typo probe on
// small random regions, explicit rows and probes: the mutable scan and
// the frozen index must both equal brute-force enumeration plus the DP.
func FuzzDomainNeighbors(f *testing.F) {
	// src%3 picks the probe's source (a bulk member, an explicit row, the
	// raw leaf); src >= 128 adds the explicit copy of the member.
	f.Add(uint64(7), uint16(300), uint8(0), uint8(0), uint8(0), byte('x'), "p.html")
	f.Add(uint64(7), uint16(300), uint8(129), uint8(1), uint8(22), byte('5'), "p.html")
	f.Add(uint64(7), uint16(300), uint8(0), uint8(1), uint8(22), byte('5'), "p.html") // inside the digits
	f.Add(uint64(9), uint16(123), uint8(0), uint8(2), uint8(20), byte('0'), "q")      // digit added
	f.Add(uint64(9), uint16(123), uint8(0), uint8(3), uint8(21), byte('0'), "q")      // digit dropped
	f.Add(uint64(9), uint16(123), uint8(0), uint8(2), uint8(4), byte('k'), "q")       // before the digits
	f.Add(uint64(9), uint16(123), uint8(0), uint8(3), uint8(11), byte('k'), "q")      // before the digits
	f.Add(uint64(9), uint16(123), uint8(0), uint8(2), uint8(28), byte('9'), "q")      // after the digits
	f.Add(uint64(9), uint16(123), uint8(0), uint8(1), uint8(26), byte('9'), "q")      // in the hex suffix
	f.Add(uint64(9), uint16(123), uint8(129), uint8(3), uint8(30), byte('0'), "q")    // after, with the copy
	f.Add(uint64(1), uint16(12), uint8(0), uint8(1), uint8(3), byte('w'), "item-000012-abcd.html")
	f.Add(uint64(3), uint16(77), uint8(1), uint8(2), uint8(12), byte('a'), "p.html")
	f.Add(uint64(3), uint16(77), uint8(2), uint8(0), uint8(0), byte('a'), "fz.simtest/a/p.htm")
	f.Fuzz(func(t *testing.T, seed uint64, count uint16, src, op, pos uint8, c byte, leaf string) {
		if len(leaf) > 40 {
			return
		}
		naive, frozen, member := neighborWorld(seed, count, leaf, src >= 128)
		var target string
		switch src % 3 {
		case 0:
			target = editOnce(member, op, pos, c)
		case 1:
			target = editOnce("fz.simtest/a/"+leaf, op, pos, c)
		default:
			target = leaf // a raw probe
		}
		want := bruteNeighbors(naive, "fz.simtest", target)
		if got := naive.DomainNeighbors("fz.simtest", target); got != want {
			t.Fatalf("mutable DomainNeighbors(%q) = %d, brute force %d", target, got, want)
		}
		if got := frozen.DomainNeighbors("fz.simtest", target); got != want {
			t.Fatalf("frozen DomainNeighbors(%q) = %d, brute force %d", target, got, want)
		}
	})
}

// TestDomainNeighborsSevenDigitIndexes covers regions past 999,999
// members, whose indexes print with seven digits: every one-byte edit
// of members on both sides of the boundary, at every position, is
// probed against a brute force over the whole region.
func TestDomainNeighborsSevenDigitIndexes(t *testing.T) {
	if testing.Short() || raceEnabled {
		// About a second per probe, and single-goroutine: the race
		// detector would only slow it down.
		t.Skip("brute force scans a million-member region per probe")
	}
	r := BulkRegion{Host: "big.simtest", DirPrefix: "/d/", Count: 1_000_040, Seed: 11}
	a := New()
	a.AddBulkCoverage(r)
	a.Freeze()

	brute := func(target string) int {
		n := 0
		var buf []byte
		for i := 0; i < r.Count; i++ {
			buf = r.appendMember(buf[:0], i)
			if refDistance(string(buf), target) == 1 {
				n++
			}
		}
		return n
	}
	// One probe per edit kind and place: in the host, in the first
	// digit, inside the digits, in the hex suffix, and across the
	// 6/7-digit boundary both ways.
	item := len("big.simtest/d/item-")
	m6 := "big.simtest" + r.PathAt(999_999)
	m7 := "big.simtest" + r.PathAt(1_000_000)
	probes := []string{
		editOnce(m6, 2, uint8(item+3), '0'), // now 7 digits long
		editOnce(m7, 1, 2, 'x'),
		editOnce(m7, 1, uint8(item), '2'),
		editOnce(m7, 2, uint8(item+3), '0'),
		editOnce(m7, 3, uint8(item+2), 0), // now 6 digits long
		editOnce(m7, 1, uint8(len(m7)-7), 'f'),
	}
	for _, p := range probes {
		want := brute(p)
		if want == 0 {
			t.Errorf("probe %q has no neighbour; the edit should leave its source at distance 1", p)
		}
		if got := a.DomainNeighbors("big.simtest", p); got != want {
			t.Errorf("DomainNeighbors(%q) = %d, brute force %d", p, got, want)
		}
	}
}

// BenchmarkDomainNeighbors is one cold typo probe on a frozen domain
// shaped like the paper-scale worst cases: 150 explicit URLs beside
// three bulk regions of 39,499 members, probed with a one-digit typo of
// a member (the ~130-candidate path).
func BenchmarkDomainNeighbors(b *testing.B) {
	a := New()
	for i := 0; i < 150; i++ {
		a.Add(snap(fmt.Sprintf("http://www.wide.simtest/story/%d.html", i), 10+i, 200))
	}
	regions := []BulkRegion{
		{Host: "www.wide.simtest", DirPrefix: "/story/", Count: 39499, Seed: 1},
		{Host: "www.wide.simtest", DirPrefix: "/site-archive/", Count: 39499, Seed: 2},
		{Host: "news.wide.simtest", DirPrefix: "/2014/", Count: 39499, Seed: 3},
	}
	for _, r := range regions {
		a.AddBulkCoverage(r)
	}
	a.Freeze()
	target := editOnce("www.wide.simtest"+regions[0].PathAt(31337), 1, uint8(len("www.wide.simtest/story/item-")+3), '9')
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = a.DomainNeighbors("wide.simtest", target)
	}
	b.ReportMetric(float64(n), "neighbours")
}
