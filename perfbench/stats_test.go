package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},  // p50 leaves 9.5 beyond
		{20, 50, true},  // p50 leaves exactly 10
		{99, 50, true},  // p90 leaves 9.9
		{100, 90, true}, // p90 leaves exactly 10
		{999, 90, true},
		{1000, 99, true},
		{250000, 99, true}, // the ladder stops at p99
	} {
		got, ok := tailPercentile(tc.n, tailLadder)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarizeFallsBackToMax(t *testing.T) {
	l := summarize([]float64{3, 1, 2})
	if l.p50 != 2 || l.tail != 3 || l.tailP != 100 || l.n != 3 {
		t.Fatalf("summarize = %+v; want p50 2, tail 3 at p100", l)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	l = summarize(xs)
	if l.tailP != 99 || l.tail != 989.01 {
		t.Fatalf("summarize(0..999) tail = p%v %v; want p99 989.01", l.tailP, l.tail)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "a.1", Start: 12, End: 20, Parent: 1},
		{Name: "other", Start: 0, End: 50, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 8, 30, 30, 8, 50}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v; want %v", got, want)
	}
}

func TestTracerSpans(t *testing.T) {
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer begin = %d; want -1", id)
	}
	off.end(-1)

	tr := newTracer()
	root := tr.begin("root", -1, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child].Parent != root || spans[child].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[root].End < spans[child].End || spans[child].Start < spans[root].Start {
		t.Fatalf("child %+v not inside root %+v", spans[child], spans[root])
	}
}

func TestZipfDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		p := newZipfPicker(seed, zipfS, 10000)
		out := make([]int, 2000)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	a, b := draw(1), draw(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different zipf draws")
	}
	// The k-th reshuffled ranking depends on the seed alone, not on how
	// many draws came before it.
	p, q := newZipfPicker(1, zipfS, 10000), newZipfPicker(1, zipfS, 10000)
	for i := 0; i < 500; i++ {
		p.next()
	}
	first := p.perm
	p.reshuffle()
	q.reshuffle()
	if !reflect.DeepEqual(p.perm, q.perm) {
		t.Fatal("same seed gave different reshuffled rankings")
	}
	if reflect.DeepEqual(p.perm, first) {
		t.Fatal("reshuffle kept the ranking")
	}
	if reflect.DeepEqual(a, draw(2)) {
		t.Fatal("different seeds gave identical zipf draws")
	}
	counts := make(map[int]int)
	for _, i := range a {
		if i < 0 || i >= 10000 {
			t.Fatalf("draw %d out of range", i)
		}
		counts[i]++
	}
	// zipf(1.1): the hottest link takes a large share of draws.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Fatalf("hottest link drawn %d of 2000 times; want a skewed law", max)
	}
}

func TestEditChooserDeterministic(t *testing.T) {
	articles := []string{"A", "B", "C"}
	urls := []string{"http://x.example/1", "http://x.example/2", "http://y.example/3"}
	plan := func(seed int64) []edit {
		c := newEditChooser(seed, articles, urls)
		out := make([]edit, 200)
		for i := range out {
			out[i] = c.next()
		}
		return out
	}
	a := plan(5)
	if !reflect.DeepEqual(a, plan(5)) {
		t.Fatal("same seed gave different edit sequences")
	}
	if reflect.DeepEqual(a, plan(6)) {
		t.Fatal("different seeds gave identical edit sequences")
	}

	// Applying the sequence keeps every removal valid: a removal only
	// ever names a citation an earlier edit added.
	orig := map[string]string{"A": "alpha", "B": "beta", "C": "gamma"}
	texts := map[string]string{"A": "alpha", "B": "beta", "C": "gamma"}
	removals := 0
	for _, e := range a {
		next, err := e.apply(texts[e.Article])
		if err != nil {
			t.Fatal(err)
		}
		texts[e.Article] = next
		if e.Remove {
			removals++
		}
	}
	if removals == 0 {
		t.Fatal("no removals in 200 edits")
	}
	for title, text := range texts {
		if !strings.HasPrefix(text, orig[title]) {
			t.Fatalf("article %s lost its original text: %q", title, text)
		}
	}
}

func TestEditApplyRemovesOnlyNamedCitation(t *testing.T) {
	add := edit{Article: "A", URL: "http://x.example/1"}
	text, _ := add.apply("body")
	text, _ = edit{Article: "A", URL: "http://x.example/2"}.apply(text)
	text, err := edit{Article: "A", URL: "http://x.example/1", Remove: true}.apply(text)
	if err != nil {
		t.Fatal(err)
	}
	if want := "body" + citeMarkup("http://x.example/2"); text != want {
		t.Fatalf("text = %q; want %q", text, want)
	}
	if _, err := (edit{Article: "A", URL: "http://x.example/9", Remove: true}).apply(text); err == nil {
		t.Fatal("removing an absent citation succeeded")
	}
}

// Every per-layer metric BENCHMARK.json declares carries a prediction,
// and every prediction names a declared metric.
func TestPredictionsCoverPerLayerMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
		if _, ok := predictions[m.Name]; !ok {
			t.Errorf("per-layer metric %s has no prediction", m.Name)
		}
	}
	for name := range predictions {
		if !declared[name] {
			t.Errorf("prediction for undeclared metric %s", name)
		}
	}
}

func TestSliceStatsMediansOverSlices(t *testing.T) {
	var samples []sample
	for s := 0; s < 3; s++ {
		for i := 0; i < 1000; i++ {
			ms := 1.0
			if s == 1 && i%50 == 0 {
				ms = 100 // a one-second stall: 2% slow requests in slice 1
			}
			samples = append(samples, sample{at: time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond, ms: ms})
		}
	}
	samples = append(samples, sample{at: 3*time.Second + time.Millisecond, ms: 500}) // trailing partial slice
	st := sliceStats(samples, 3*time.Second+2*time.Millisecond, time.Second)
	if st.slices != 3 || st.n != 3001 {
		t.Fatalf("slices %d, n %d; want 3, 3001", st.slices, st.n)
	}
	if st.tail != 1 || st.tailP != 99 {
		t.Fatalf("tail p%v = %v; want the median slice's p99, 1", st.tailP, st.tail)
	}
	if st.rate != 1000 {
		t.Fatalf("rate = %v; want 1000/s", st.rate)
	}
	if st.p50 != 1 {
		t.Fatalf("p50 = %v; want 1", st.p50)
	}
}
