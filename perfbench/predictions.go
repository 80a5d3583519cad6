package main

// prediction says, before any change is measured, which end-to-end
// metric on which workload a per-layer metric should move, and on which
// workload it should not. Traced runs print it beside each metric.
type prediction struct {
	moves, not string
}

// The end-to-end metrics are uniform across workloads: op_* is the
// workload's unit of work (one Study.Run on study; one /v1/classify on
// the serve workloads, connection 1 only on serve-churn). serve-uniform
// is run by hand, not by BENCHMARK.json (see README.md); its layers are
// measured by the uniform probe of every traced run.
var predictions = map[string]prediction{
	"worldgen.Generate_s": {"nothing: input generation, never set-up", "all workloads"},
	"persist.SavePaged_s": {"nothing: input generation, never set-up", "all workloads"},
	"persist.OpenPaged_s": {"setup_s on every workload", "op_* on every workload"},
	"service.New_s":       {"setup_s on serve-uniform and serve-churn", "setup_s on study"},

	"core.Run_s":                {"op_p50_ms, ops_per_s on study", "serve-churn"},
	"core.Collect_s":            {"op_p50_ms on study; setup_s on serve-* (service.New collects)", "op_* on serve-churn"},
	"core.LiveCheck_s":          {"op_p50_ms on study", "serve-churn"},
	"core.LiveCheck_self_s":     {"op_p50_ms on study", "serve-churn"},
	"core.ArchiveAnalysis_s":    {"op_p50_ms on study", "serve-churn"},
	"core.TemporalAnalysis_s":   {"op_p50_ms on study", "serve-churn"},
	"core.SpatialAnalysis_s":    {"op_p50_ms on study", "serve-* (never-archived verdicts come from the negative cache)"},
	"core.stage_sum_ratio":      {"nothing: checks the stage timings cover Run (expect 0.9-1.1)", "all workloads"},
	"core.typo_scan_truncated":  {"op_p50_ms on study (a complete typo index drives it to 0)", "serve-*"},
	"archive.memo_hit_ratio":    {"op_p50_ms on study", "serve-*"},
	"simweb.roundtrips":         {"op_p50_ms on study", "serve-churn"},
	"simweb.roundtrip_s":        {"op_p50_ms on study", "serve-churn"},
	"core.ClassifyLink_us":      {"ops_per_s on serve-churn (its cache misses) and op_p50_ms, ops_per_s on serve-uniform", "study (batch stages, not ClassifyLink)"},
	"core.ClassifyLink_self_us": {"ops_per_s on serve-churn (its cache misses) and op_p50_ms, ops_per_s on serve-uniform", "study"},
	"core.CheckLive_us":         {"ops_per_s on serve-churn (its cache misses) and op_p50_ms, ops_per_s on serve-uniform", "study (LiveCheck fans out FetchAll instead)"},
	"fetch.Fetch_us":            {"ops_per_s on serve-churn (its cache misses), op_p50_ms, ops_per_s on serve-uniform; op_p50_ms on study", "setup_s on every workload"},
	"softerror.Check_us":        {"ops_per_s on serve-churn (its cache misses), op_p50_ms, ops_per_s on serve-uniform; op_p50_ms on study", "setup_s on every workload"},
	"archive.SnapshotsBetween_us": {"ops_per_s on serve-churn (its cache misses), op_p50_ms, ops_per_s on serve-uniform; op_p50_ms on study",
		"setup_s on every workload"},
	"redircheck.FindValidatedCopy_us": {"ops_per_s on serve-churn (its cache misses), op_p50_ms, ops_per_s on serve-uniform; op_p50_ms on study",
		"setup_s on every workload"},
	"archive.Memo.DomainURLs_us":          {"op_p50_ms on study", "serve-* (negative cache bypasses the typo probe)"},
	"core.ClassifyLink_never_archived_us": {"op_p50_ms on study", "serve-* (negative cache bypasses the typo probe)"},

	"service.handler_p50_us":              {"op_p50_ms on serve-uniform and serve-churn", "study"},
	"service.client_self_us":              {"nothing: the server's net/http, loopback and the client, outside the program's handler", "all workloads"},
	"service.cache_hit_ratio":             {"ops_per_s on serve-churn", "serve-uniform (pool 2.4x the cache: ratio 0)"},
	"service.negcache_hit_ratio":          {"ops_per_s on serve-uniform, and on serve-churn through its cache misses", "study"},
	"archive.prefilter_definite_no_ratio": {"ops_per_s on serve-uniform, and on serve-churn through its cache misses", "study"},
	"service.singleflight_coalesced":      {"failed on serve-*", "study"},
	"service.admission_rejected":          {"failed on serve-*", "study"},
	"trace.classify_rps_untraced":         {"nothing: tracing overhead, measured", "all workloads"},
	"trace.classify_rps_traced":           {"nothing: tracing overhead, measured", "all workloads"},
	"trace.overhead_frac":                 {"nothing: tracing overhead, measured", "all workloads"},

	"monitor.rechecks_per_s":   {"op_* on serve-churn; set by the writer's schedule, it drops only when the monitor falls behind", "study"},
	"monitor.tick_late_frac":   {"monitor.rechecks_per_s on serve-churn (late steps: the monitor cannot keep its schedule)", "study"},
	"monitor.check_us":         {"op_tail_ms on serve-churn (re-check bursts share the CPU with reads)", "study"},
	"monitor.checks_executed":  {"op_tail_ms on serve-churn", "study"},
	"monitor.flips":            {"nothing yet: 0 without fault windows (see README)", "all workloads"},
	"journal.entries":          {"nothing yet: 0 without fault windows (see README)", "all workloads"},
	"wikimedia.edit_ms":        {"op_tail_ms on serve-churn", "study"},
	"eventstream.feed_dropped": {"failed on serve-churn", "study"},
}

func predictionFor(name string) string {
	p, ok := predictions[name]
	if !ok {
		return "(no prediction)"
	}
	return "-> " + p.moves + " | not: " + p.not
}
