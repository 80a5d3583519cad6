package core

import (
	"fmt"
	"strings"

	"permadead/internal/fetch"
	"permadead/internal/softerror"
	"permadead/internal/stats"
)

// Report holds every number and distribution the paper reports, as
// measured by the pipeline.
type Report struct {
	Config  Config
	Records []LinkRecord

	// §2.4 dataset characterization.
	NumDomains    int
	NumHosts      int
	URLsPerDomain *stats.CDF // Figure 3(a)
	SiteRanks     *stats.CDF // Figure 3(b)
	PostYears     *stats.CDF // Figure 3(c)

	// §3 live check.
	LiveResults           []fetch.Result
	LiveBreakdown         *stats.Breakdown // Figure 4
	SoftVerdicts          map[int]softerror.Verdict
	Num200                int // final status 200
	NumFunctional         int // not soft-404 (paper: 305)
	FunctionalViaRedirect int // reach 200 via redirect (paper: 79% of 305)

	// §3: first capture after the mark.
	PostMarkTotal          int
	PostMarkFirstErroneous int // paper: 95%

	// §4 archive history (indices into Records).
	Pre200           []int // §4.1 (paper: 1,082)
	WithRedirCopies  []int // §4.2 (paper: 3,776)
	ValidRedirCopies []int // §4.2 (paper: 481)

	// §5.1 temporal (within the non-pre-200 links).
	NoPre200         int        // paper: 8,918
	WithAnyCopies    int        // paper: 6,936
	NoCopies         []int      // paper: 1,982
	PrePostCopies    int        // paper: 619
	GapCDF           *stats.CDF // Figure 5 (paper: 6,317 links)
	SameDayCaptures  int        // paper: 437
	SameDayErroneous int        // paper: 266

	// §5.2 spatial (within the no-copy links).
	DirCounts       *stats.CDF // Figure 6, directory level
	HostCounts      *stats.CDF // Figure 6, hostname level
	ZeroDir         int        // paper: 749
	ZeroHost        int        // paper: 256
	Typos           int        // paper: 219
	QueryParamLinks int
	// TypoScanTruncated counted links whose typo probe hit a
	// per-domain enumeration cap. The probe is now exact over the whole
	// domain (archive.DomainNeighbors), so it is always 0; the field
	// and its table row (shown only when non-zero) remain for readers
	// of the report.
	TypoScanTruncated int
	// TypoLinks are the indices (into Records) of the potential typos,
	// a subset of NoCopies in NoCopies order.
	TypoLinks []int

	// Verdicts is the per-link study verdict, one per record, derived
	// from the stage outcomes above (see Verdict). The serving layer's
	// /v1/classify endpoint must agree with these for every link.
	Verdicts []Verdict
}

// N returns the sample size.
func (r *Report) N() int { return len(r.Records) }

func (r *Report) frac(n int) float64 {
	if r.N() == 0 {
		return 0
	}
	return float64(n) / float64(r.N())
}

// RenderDataset renders the §2.4 summary and Figure 3.
func (r *Report) RenderDataset() string {
	var b strings.Builder
	t := stats.Table{
		Title:   "Dataset (paper §2.4)",
		Headers: []string{"Quantity", "Value"},
	}
	t.AddRow("Sampled permanently dead links", fmt.Sprint(r.N()))
	t.AddRow("Distinct domains", fmt.Sprint(r.NumDomains))
	t.AddRow("Distinct hostnames", fmt.Sprint(r.NumHosts))
	t.AddRow("Links posted after 2015", fmt.Sprintf("%.0f%%", (1-r.PostYears.At(2016))*100))
	t.AddRow("Links posted after 2017", fmt.Sprintf("%.0f%%", (1-r.PostYears.At(2018))*100))
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(stats.RenderCDF("Figure 3(a): URLs per domain (log x)", r.URLsPerDomain, 12, true))
	b.WriteByte('\n')
	if r.SiteRanks.N() > 0 {
		b.WriteString(stats.RenderCDF("Figure 3(b): site ranking", r.SiteRanks, 12, false))
		b.WriteByte('\n')
	}
	b.WriteString(stats.RenderCDF("Figure 3(c): date link posted (year)", r.PostYears, 12, false))
	return b.String()
}

// RenderLive renders Figure 4 and the §3 findings.
func (r *Report) RenderLive() string {
	var b strings.Builder
	b.WriteString(stats.RenderBreakdown("Figure 4: live-web status of permanently dead links", r.LiveBreakdown))
	b.WriteByte('\n')
	t := stats.Table{
		Title:   "§3: Are permanently dead links indeed dead?",
		Headers: []string{"Quantity", "Value", "Share"},
	}
	t.AddRow("Final status 200", fmt.Sprint(r.Num200), pct(r.Num200, r.N()))
	t.AddRow("…functional (not soft-404)", fmt.Sprint(r.NumFunctional), pct(r.NumFunctional, r.N()))
	t.AddRow("…functional via redirect", fmt.Sprint(r.FunctionalViaRedirect), pct(r.FunctionalViaRedirect, r.NumFunctional))
	t.AddRow("First post-mark capture erroneous", fmt.Sprint(r.PostMarkFirstErroneous), pct(r.PostMarkFirstErroneous, r.PostMarkTotal))
	b.WriteString(t.String())
	return b.String()
}

// RenderArchive renders the §4 findings.
func (r *Report) RenderArchive() string {
	t := stats.Table{
		Title:   "§4: What archived copies exist for permanently dead links?",
		Headers: []string{"Quantity", "Value", "Share of sample"},
	}
	t.AddRow("Pre-mark 200-status copy (missed, §4.1)", fmt.Sprint(len(r.Pre200)), pct(len(r.Pre200), r.N()))
	t.AddRow("No pre-mark 200 copy", fmt.Sprint(r.NoPre200), pct(r.NoPre200, r.N()))
	t.AddRow("…with pre-mark 3xx copy (§4.2)", fmt.Sprint(len(r.WithRedirCopies)), pct(len(r.WithRedirCopies), r.N()))
	t.AddRow("…3xx copy validates as non-erroneous", fmt.Sprint(len(r.ValidRedirCopies)), pct(len(r.ValidRedirCopies), r.N()))
	return t.String()
}

// RenderTemporal renders §5.1 and Figure 5.
func (r *Report) RenderTemporal() string {
	var b strings.Builder
	t := stats.Table{
		Title:   "§5.1: Temporal analysis (links with no pre-mark 200 copy)",
		Headers: []string{"Quantity", "Value"},
	}
	t.AddRow("Links analyzed", fmt.Sprint(r.NoPre200))
	t.AddRow("…with at least one archived copy", fmt.Sprint(r.WithAnyCopies))
	t.AddRow("…with no archived copies", fmt.Sprint(len(r.NoCopies)))
	t.AddRow("Copies predate posting", fmt.Sprint(r.PrePostCopies))
	t.AddRow("First capture after posting (Fig 5 population)", fmt.Sprint(r.GapCDF.N()))
	t.AddRow("…captured same day", fmt.Sprintf("%d (%s)", r.SameDayCaptures, pct(r.SameDayCaptures, r.GapCDF.N())))
	t.AddRow("…same-day copy erroneous (typos)", fmt.Sprint(r.SameDayErroneous))
	t.AddRow("Median gap (days)", fmt.Sprintf("%.0f", r.GapCDF.Quantile(0.5)))
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(stats.RenderCDF("Figure 5: posting→first-capture gap in days (log x)", r.GapCDF, 12, true))
	return b.String()
}

// RenderSpatial renders §5.2 and Figure 6.
func (r *Report) RenderSpatial() string {
	var b strings.Builder
	n := len(r.NoCopies)
	t := stats.Table{
		Title:   "§5.2: Spatial analysis (links with no archived copies)",
		Headers: []string{"Quantity", "Value"},
	}
	t.AddRow("Links analyzed", fmt.Sprint(n))
	t.AddRow("No 200-status copies in same directory", fmt.Sprint(r.ZeroDir))
	t.AddRow("No 200-status copies on same hostname", fmt.Sprint(r.ZeroHost))
	t.AddRow("Potential typos (unique edit-distance-1 archived URL)", fmt.Sprint(r.Typos))
	if r.TypoScanTruncated > 0 {
		t.AddRow("…typo scans truncated at domain cap", fmt.Sprint(r.TypoScanTruncated))
	}
	t.AddRow("URLs with query parameters", fmt.Sprintf("%d (%s)", r.QueryParamLinks, pct(r.QueryParamLinks, n)))
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(stats.RenderCDF("Figure 6: archived 200-status URLs in same directory (log x)", r.DirCounts, 12, true))
	b.WriteByte('\n')
	b.WriteString(stats.RenderCDF("Figure 6: archived 200-status URLs on same hostname (log x)", r.HostCounts, 12, true))
	return b.String()
}

// Render produces the full study report.
func (r *Report) Render() string {
	return strings.Join([]string{
		r.RenderDataset(), r.RenderLive(), r.RenderArchive(),
		r.RenderTemporal(), r.RenderSpatial(), r.RenderConfidence(),
	}, "\n\n")
}

// ComparisonRow is one paper-vs-measured entry for EXPERIMENTS.md.
type ComparisonRow struct {
	Experiment string
	Paper      string
	Measured   string
}

// PaperComparison assembles the paper-vs-measured table. Paper values
// are the IMC 2022 numbers for the 10,000-link sample; measured values
// scale with the configured sample size.
func (r *Report) PaperComparison() []ComparisonRow {
	n := r.N()
	scale := func(paper10k int) string {
		if n == 10000 {
			return fmt.Sprint(paper10k)
		}
		return fmt.Sprintf("%d (≈%.1f%% of sample)", paper10k, float64(paper10k)/100.0)
	}
	rows := []ComparisonRow{
		{"Sample size", "10,000", fmt.Sprint(n)},
		{"Distinct domains", "3,521", fmt.Sprint(r.NumDomains)},
		{"Distinct hostnames", "3,940", fmt.Sprint(r.NumHosts)},
		{"Posted after 2015", "40%", fmt.Sprintf("%.0f%%", (1-r.PostYears.At(2016))*100)},
		{"Posted after 2017", "20%", fmt.Sprintf("%.0f%%", (1-r.PostYears.At(2018))*100)},
		{"Fig 4: DNS failure + 404 share", ">70%", fmt.Sprintf("%.0f%%",
			(r.LiveBreakdown.Fraction(fetch.CatDNSFailure.String())+r.LiveBreakdown.Fraction(fetch.Cat404.String()))*100)},
		{"Fig 4: final status 200", "1,650 (16.5%)", fmt.Sprintf("%d (%.1f%%)", r.Num200, r.frac(r.Num200)*100)},
		{"§3: functional, not soft-404", scale(305), fmt.Sprintf("%d (%.1f%%)", r.NumFunctional, r.frac(r.NumFunctional)*100)},
		{"§3: functional via redirect", "79%", pct(r.FunctionalViaRedirect, r.NumFunctional)},
		{"§3: first post-mark copy erroneous", "95%", pct(r.PostMarkFirstErroneous, r.PostMarkTotal)},
		{"§4.1: pre-mark 200 copy missed", scale(1082), fmt.Sprintf("%d (%.1f%%)", len(r.Pre200), r.frac(len(r.Pre200))*100)},
		{"§4.2: links with 3xx copies", scale(3776), fmt.Sprint(len(r.WithRedirCopies))},
		{"§4.2: validated 3xx copies", scale(481), fmt.Sprintf("%d (%.1f%%)", len(r.ValidRedirCopies), r.frac(len(r.ValidRedirCopies))*100)},
		{"§5: links with no pre-mark 200 copy", scale(8918), fmt.Sprint(r.NoPre200)},
		{"§5.1: with ≥1 archived copy", scale(6936), fmt.Sprint(r.WithAnyCopies)},
		{"§5.1: with no archived copies", scale(1982), fmt.Sprint(len(r.NoCopies))},
		{"§5.1: copies predate posting", scale(619), fmt.Sprint(r.PrePostCopies)},
		{"§5.1: Fig 5 population", scale(6317), fmt.Sprint(r.GapCDF.N())},
		{"§5.1: same-day first capture", "437 (~7%)", fmt.Sprintf("%d (%s)", r.SameDayCaptures, pct(r.SameDayCaptures, r.GapCDF.N()))},
		{"§5.1: same-day erroneous (typos)", scale(266), fmt.Sprint(r.SameDayErroneous)},
		{"§5.2: zero dir-level coverage", scale(749), fmt.Sprint(r.ZeroDir)},
		{"§5.2: zero hostname-level coverage", scale(256), fmt.Sprint(r.ZeroHost)},
		{"§5.2: edit-distance-1 typos", scale(219), fmt.Sprint(r.Typos)},
	}
	return rows
}

// RenderComparison renders the paper-vs-measured table.
func (r *Report) RenderComparison() string {
	t := stats.Table{
		Title:   "Paper vs. measured",
		Headers: []string{"Experiment", "Paper (10k sample)", "Measured"},
	}
	for _, row := range r.PaperComparison() {
		t.AddRow(row.Experiment, row.Paper, row.Measured)
	}
	return t.String()
}

func pct(n, of int) string {
	if of == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", float64(n)/float64(of)*100)
}

// RenderConfidence renders 95% Wilson intervals for the headline
// proportions — the sampling-noise lens for comparing this one sample
// against the paper's one sample.
func (r *Report) RenderConfidence() string {
	t := stats.Table{
		Title:   "Headline proportions with 95% confidence intervals",
		Headers: []string{"Quantity", "Measured", "95% CI", "Paper"},
	}
	row := func(name string, count int, paper string) {
		lo, hi := stats.WilsonCI(count, r.N())
		t.AddRow(name,
			fmt.Sprintf("%.1f%%", r.frac(count)*100),
			fmt.Sprintf("[%.1f%%, %.1f%%]", lo*100, hi*100),
			paper)
	}
	row("Answer 200 today (Fig 4)", r.Num200, "16.5%")
	row("Functional, not soft-404 (§3)", r.NumFunctional, "3.0%")
	row("Pre-mark 200 copy missed (§4.1)", len(r.Pre200), "10.8%")
	row("Validated 3xx copies (§4.2)", len(r.ValidRedirCopies), "4.8%")
	row("No archived copies (§5.1)", len(r.NoCopies), "19.8%")
	return t.String()
}
