package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// tailLadder is the set of percentiles a latency tail may be reported
// at. tailPercentile picks the highest rung that still has at least
// minBeyond samples above it, so a reported tail is never a handful of
// outliers.
var tailLadder = []float64{50, 90, 99}

const minBeyond = 10

// tailPercentile returns the highest percentile of ladder (ascending)
// that leaves at least minBeyond of n samples beyond it, and false when
// even the lowest rung does not.
func tailPercentile(n int, ladder []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range ladder {
		if float64(n)*(100-p)/100 >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// quantile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 50)
}

// latency summarizes one operation's latency samples (milliseconds):
// the median and the tail rule above. With too few samples for any
// rung, the tail is the maximum and tailP is 100.
type latency struct {
	n         int
	p50, tail float64
	tailP     float64
}

func summarize(samples []float64) latency {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	l := latency{n: len(s)}
	if len(s) == 0 {
		return l
	}
	l.p50 = quantile(s, 50)
	if p, ok := tailPercentile(len(s), tailLadder); ok {
		l.tail, l.tailP = quantile(s, p), p
	} else {
		l.tail, l.tailP = s[len(s)-1], 100
	}
	return l
}

// sample is one successful request: when it completed, relative to the
// start of its window, and its latency in milliseconds.
type sample struct {
	at time.Duration
	ms float64
}

// windowStats is a serve window's latency and throughput.
type windowStats struct {
	n, slices int
	p50       float64 // over every sample
	tail      float64 // median over slices of each slice's tail
	tailP     float64
	rate      float64 // median over slices of completions per second
}

// sliceStats cuts a window of the given length into whole slices of
// length d (a trailing partial slice is left out of the per-slice
// figures) and reports the median of the per-slice tails and rates. A
// stall of the shared machine that lasts a fraction of a second then
// moves one slice, not the window's figure.
func sliceStats(samples []sample, length, d time.Duration) windowStats {
	n := max(int(length/d), 1)
	bySlice := make([][]float64, n)
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = s.ms
		if k := int(s.at / d); k < n {
			bySlice[k] = append(bySlice[k], s.ms)
		}
	}
	st := windowStats{n: len(samples), slices: n, p50: median(all)}
	var tails, rates []float64
	for _, xs := range bySlice {
		l := summarize(xs)
		rates = append(rates, float64(l.n)/d.Seconds())
		if l.n > 0 {
			tails = append(tails, l.tail)
			st.tailP = max(st.tailP, l.tailP)
		}
	}
	st.tail, st.rate = median(tails), median(rates)
	return st
}

// zipfPicker draws link indices with a zipf(s) popularity law over n
// links. Popularity rank is decoupled from link order by a seeded
// permutation, so the hot set is spread across hosts instead of being
// the alphabetically first URLs. reshuffle draws the next ranking from
// a generator of its own, so the k-th ranking depends only on the seed.
type zipfPicker struct {
	z     *rand.Zipf
	perm  []int
	perms *rand.Rand
}

func newZipfPicker(seed int64, s float64, n int) *zipfPicker {
	rng := rand.New(rand.NewSource(seed))
	return &zipfPicker{
		z:     rand.NewZipf(rng, s, 1, uint64(n-1)),
		perm:  rng.Perm(n),
		perms: rand.New(rand.NewSource(^seed)),
	}
}

func (p *zipfPicker) next() int { return p.perm[p.z.Uint64()] }

func (p *zipfPicker) reshuffle() { p.perm = p.perms.Perm(len(p.perm)) }

// editChooser decides the churn writer's next wiki edit: which watched
// article to touch and whether to add a {{cite web}} or remove one the
// writer added earlier. The sequence depends only on the seed, so two
// runs at one seed make the same edits in the same order.
type editChooser struct {
	rng      *rand.Rand
	articles []string
	urls     []string
	added    map[string][]string // article -> cited URLs this writer added
}

// edit is one planned citation change.
type edit struct {
	Article string
	URL     string
	Remove  bool
}

func newEditChooser(seed int64, articles, urls []string) *editChooser {
	return &editChooser{
		rng:      rand.New(rand.NewSource(seed ^ 0x5eed_ed17)),
		articles: articles,
		urls:     urls,
		added:    make(map[string][]string),
	}
}

func (c *editChooser) next() edit {
	title := c.articles[c.rng.Intn(len(c.articles))]
	prev := c.added[title]
	if len(prev) > 0 && c.rng.Intn(2) == 0 {
		url := prev[len(prev)-1]
		c.added[title] = prev[:len(prev)-1]
		return edit{Article: title, URL: url, Remove: true}
	}
	url := c.urls[c.rng.Intn(len(c.urls))]
	c.added[title] = append(prev, url)
	return edit{Article: title, URL: url}
}

// citeMarkup is the exact text an added citation contributes, so a
// later removal can cut the same bytes back out.
func citeMarkup(url string) string {
	return fmt.Sprintf("\n<ref>{{cite web|url=%s|title=Benchmark citation}}</ref>", url)
}

// apply returns text with the edit made: an added citation is
// appended; a removal cuts the last occurrence of that citation.
func (e edit) apply(text string) (string, error) {
	m := citeMarkup(e.URL)
	if !e.Remove {
		return text + m, nil
	}
	i := strings.LastIndex(text, m)
	if i < 0 {
		return "", fmt.Errorf("edit: %q holds no citation of %s to remove", e.Article, e.URL)
	}
	return text[:i] + text[i+len(m):], nil
}
