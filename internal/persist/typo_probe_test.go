package persist

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"permadead/internal/archive"
	"permadead/internal/urlutil"
	"permadead/internal/worldgen"
)

// refDistance is the DP edit distance after stripping the common
// prefix and suffix, which never changes a Levenshtein distance.
func refDistance(a, b string) int {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	return urlutil.EditDistance(a, b)
}

// unlimitedDomainURLs is the reference enumeration DomainURLs caps:
// every distinct row URL of the domain's hosts, hosts sorted, rows as
// an uncapped CDXList emits them.
func unlimitedDomainURLs(a *archive.Archive, domain string) []string {
	seen := map[string]bool{}
	var out []string
	for _, h := range a.Hosts() {
		if urlutil.DomainOfHost(h) != domain {
			continue
		}
		for _, e := range a.CDXList(archive.CDXQuery{Host: h, Limit: 1 << 30}) {
			if !seen[e.URL] {
				seen[e.URL] = true
				out = append(out, e.URL)
			}
		}
	}
	return out
}

// domainRows is the domain's CDX row count (repeat captures included),
// an upper bound on its distinct URLs that costs no enumeration.
func domainRows(a *archive.Archive, domain string) int {
	n := 0
	for _, h := range a.Hosts() {
		if urlutil.DomainOfHost(h) == domain {
			n += a.CDXCount(archive.CDXQuery{Host: h})
		}
	}
	return n
}

// TestDomainNeighborsMatchesBruteForce runs the §5.2 typo probe for
// every never-archived link of the small universe, and for a subset at
// scale 1.0, on the mutable scan, the frozen index and the paged
// store. Each answer must equal the reference: the domain's unlimited
// URL enumeration, compared with the DP. The three stores are probed
// concurrently, so under -race this also checks their read paths.
func TestDomainNeighborsMatchesBruteForce(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		checkTypoProbe(t, worldgen.SmallParams(), 1, 0)
	})
	t.Run("scale-1.0", func(t *testing.T) {
		if testing.Short() {
			t.Skip("generates a full-scale universe")
		}
		// Every 20th link whose domain holds at most 250,000 rows: the
		// subset spans domains above the old 4,000-URL scan cap while
		// keeping each reference enumeration small.
		checkTypoProbe(t, worldgen.DefaultParams(), 20, 250000)
	})
}

// checkTypoProbe generates p, probes every every-th never-archived
// link (skipping domains above maxRows CDX rows when maxRows > 0) and
// compares the three stores with the reference.
func checkTypoProbe(t *testing.T, p worldgen.Params, every, maxRows int) {
	u := worldgen.Generate(p)
	frozen := u.Archive
	mutable := archive.New()
	frozen.EachSnapshot(mutable.Add)
	frozen.EachBulkRegion(mutable.AddBulkCoverage)
	var buf bytes.Buffer
	if err := SavePaged(&buf, FromUniverse(u)); err != nil {
		t.Fatal(err)
	}
	paged, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	type probe struct {
		domain, target string
		want           int
	}
	var probes []probe
	var skipped, never, typos int
	cache := map[string][]string{} // domain -> reference URLs
	for _, lp := range u.Plan.Links {
		if _, ok := frozen.First(lp.URL); ok {
			continue
		}
		never++
		if never%every != 0 {
			continue
		}
		domain := urlutil.Domain(lp.URL)
		if _, ok := cache[domain]; !ok {
			if maxRows > 0 && domainRows(frozen, domain) > maxRows {
				skipped++
				continue
			}
			cache[domain] = unlimitedDomainURLs(frozen, domain)
		}
		target := lp.URL[strings.Index(lp.URL, "://")+3:]
		want := 0
		for _, url := range cache[domain] {
			url = url[len("http://"):]
			if d := len(url) - len(target); d > 1 || d < -1 {
				continue // the length gap alone is a distance of 2 or more
			}
			if refDistance(url, target) == 1 {
				want++
			}
		}
		if want == 1 {
			typos++
		}
		probes = append(probes, probe{domain, target, want})
	}
	if len(probes) == 0 || typos == 0 {
		t.Fatalf("%d probes, %d typos among %d never-archived links: nothing tested", len(probes), typos, never)
	}
	t.Logf("%d probes (%d typos) of %d never-archived links; %d skipped as too large to enumerate",
		len(probes), typos, never, skipped)

	stores := map[string]*archive.Archive{"mutable": mutable, "frozen": frozen, "paged": paged.Archive}
	var wg sync.WaitGroup
	for name, a := range stores {
		name, a := name, a
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pr := range probes {
				if got := a.DomainNeighbors(pr.domain, pr.target); got != pr.want {
					t.Errorf("%s DomainNeighbors(%s, %q) = %d, brute force %d", name, pr.domain, pr.target, got, pr.want)
				}
			}
		}()
	}
	wg.Wait()
}
