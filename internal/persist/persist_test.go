package persist

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/simweb"
	"permadead/internal/worldgen"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	u := worldgen.Generate(worldgen.SmallParams().Scale(0.5))

	var buf bytes.Buffer
	if err := Save(&buf, FromUniverse(u)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty save")
	}

	b, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Structure survives.
	if b.World.Sites() != u.World.Sites() {
		t.Errorf("sites: %d vs %d", b.World.Sites(), u.World.Sites())
	}
	if b.Wiki.Len() != u.Wiki.Len() {
		t.Errorf("articles: %d vs %d", b.Wiki.Len(), u.Wiki.Len())
	}
	if b.Archive.TotalSnapshots() != u.Archive.TotalSnapshots() {
		t.Errorf("snapshots: %d vs %d", b.Archive.TotalSnapshots(), u.Archive.TotalSnapshots())
	}
	if b.Params.SampleSize != u.Params.SampleSize {
		t.Errorf("params: %d vs %d", b.Params.SampleSize, u.Params.SampleSize)
	}
}

func TestLoadedUniverseMeasuresIdentically(t *testing.T) {
	u := worldgen.Generate(worldgen.SmallParams().Scale(0.5))
	var buf bytes.Buffer
	if err := Save(&buf, FromUniverse(u)); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(bundleWiki *Bundle, orig bool) *core.Report {
		cfg := core.DefaultConfig()
		cfg.SampleSize = 0
		cfg.CrawlArticles = 0
		var s *core.Study
		if orig {
			s = &core.Study{Config: cfg, Wiki: u.Wiki, Arch: u.Archive,
				Client: fetch.New(simweb.NewTransport(u.World, cfg.StudyTime)), Ranks: u.World}
		} else {
			s = &core.Study{Config: cfg, Wiki: bundleWiki.Wiki, Arch: bundleWiki.Archive,
				Client: fetch.New(simweb.NewTransport(bundleWiki.World, cfg.StudyTime)), Ranks: bundleWiki.World}
		}
		r, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	ra := mk(nil, true)
	rb := mk(b, false)

	if ra.N() != rb.N() {
		t.Fatalf("sample sizes differ: %d vs %d", ra.N(), rb.N())
	}
	for _, cat := range ra.LiveBreakdown.Categories() {
		if ra.LiveBreakdown.Count(cat) != rb.LiveBreakdown.Count(cat) {
			t.Errorf("category %q: %d vs %d", cat,
				ra.LiveBreakdown.Count(cat), rb.LiveBreakdown.Count(cat))
		}
	}
	if len(ra.Pre200) != len(rb.Pre200) ||
		len(ra.ValidRedirCopies) != len(rb.ValidRedirCopies) ||
		len(ra.NoCopies) != len(rb.NoCopies) ||
		ra.Typos != rb.Typos {
		t.Errorf("archive analyses differ: pre200 %d/%d valid %d/%d none %d/%d typos %d/%d",
			len(ra.Pre200), len(rb.Pre200),
			len(ra.ValidRedirCopies), len(rb.ValidRedirCopies),
			len(ra.NoCopies), len(rb.NoCopies), ra.Typos, rb.Typos)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage should fail to load")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail to load")
	}
}

// TestLoadReportsFoundVersion checks a version-mismatched stream fails
// with an error naming the version actually found, not an opaque
// decode failure.
func TestLoadReportsFoundVersion(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(fileHeader{Version: 99}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&file{}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil {
		t.Fatal("version-99 stream loaded without error")
	}
	if !strings.Contains(err.Error(), "version 99 found") {
		t.Errorf("error does not name the found version: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("version %d", formatVersion)) {
		t.Errorf("error does not name the supported version: %v", err)
	}
}

func TestFaultWindowsRoundTrip(t *testing.T) {
	p := worldgen.SmallParams()
	p.FlakySiteFrac = 0.5
	p.FlakyRate = 0.7
	p.FlakyRetryAfterSec = 33
	u := worldgen.Generate(p)

	count := func(w *simweb.World) (sites, windows int) {
		w.EachSite(func(s *simweb.Site) {
			if len(s.Faults) > 0 {
				sites++
				windows += len(s.Faults)
			}
		})
		return
	}
	origSites, origWindows := count(u.World)
	if origSites == 0 {
		t.Fatal("generation planted no fault windows")
	}

	var buf bytes.Buffer
	if err := Save(&buf, FromUniverse(u)); err != nil {
		t.Fatal(err)
	}
	gobBundle, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The paged (v4) store decodes fault windows lazily, on the first
	// touch of each flaky site.
	path := filepath.Join(t.TempDir(), "u.pduniv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SavePaged(f, FromUniverse(u)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(path)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	for name, b := range map[string]*Bundle{"gob": gobBundle, "paged": paged} {
		gotSites, gotWindows := count(b.World)
		if gotSites != origSites || gotWindows != origWindows {
			t.Fatalf("%s faults: %d sites/%d windows vs %d/%d", name, gotSites, gotWindows, origSites, origWindows)
		}

		// Window contents survive exactly — fault schedules are seed-pure,
		// so any field drift would change measured outcomes.
		for _, host := range u.World.Hostnames() {
			a, z := u.World.Site(host), b.World.Site(host)
			if len(a.Faults) != len(z.Faults) {
				t.Fatalf("%s %s: %d vs %d windows", name, host, len(a.Faults), len(z.Faults))
			}
			for i := range a.Faults {
				if a.Faults[i] != z.Faults[i] {
					t.Fatalf("%s %s window %d: %+v vs %+v", name, host, i, a.Faults[i], z.Faults[i])
				}
			}
		}
		if b.Params.FlakySiteFrac != p.FlakySiteFrac || b.Params.FlakyRate != p.FlakyRate {
			t.Errorf("%s flaky params lost: %+v", name, b.Params)
		}
	}
}
