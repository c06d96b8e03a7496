package obs

// FastPath groups the fast-path counters of one simulation run
// (DESIGN.md §9): message-check memo hits/misses, duplicate
// discards from the lazy header-first decode, and decide-cache hits.
// It is embedded by value in nectar.SimulationResult and harness.Trial,
// so the fields promote (existing accessors keep compiling) and JSON
// encoding stays flat (checkpoint records from earlier versions decode
// unchanged).
type FastPath struct {
	VerifyCacheHits   int64 `json:"verify_cache_hits"`
	VerifyCacheMisses int64 `json:"verify_cache_misses"`
	LazyDiscards      int64 `json:"lazy_discards"`
	DecideCacheHits   int64 `json:"decide_cache_hits"`
}

// Add accumulates o into f.
func (f *FastPath) Add(o FastPath) {
	f.VerifyCacheHits += o.VerifyCacheHits
	f.VerifyCacheMisses += o.VerifyCacheMisses
	f.LazyDiscards += o.LazyDiscards
	f.DecideCacheHits += o.DecideCacheHits
}

// VerifyHitRate returns hits/(hits+misses), or 0 with no lookups.
func (f FastPath) VerifyHitRate() float64 {
	total := f.VerifyCacheHits + f.VerifyCacheMisses
	if total == 0 {
		return 0
	}
	return float64(f.VerifyCacheHits) / float64(total)
}

// Publish adds the counters to reg under the nectar_fastpath_* names.
// Registration is idempotent, so repeated publishes from successive runs
// accumulate into the same counters.
func (f FastPath) Publish(reg *Registry) {
	if reg == nil {
		return
	}
	reg.Counter("nectar_fastpath_verify_cache_hits_total", "Message checks answered by the verification memo.").Add(f.VerifyCacheHits)
	reg.Counter("nectar_fastpath_verify_cache_misses_total", "Message checks the verification memo had to verify.").Add(f.VerifyCacheMisses)
	reg.Counter("nectar_fastpath_lazy_discards_total", "Duplicates discarded from the 8-byte lazy header decode.").Add(f.LazyDiscards)
	reg.Counter("nectar_fastpath_decide_cache_hits_total", "Decide-cache hits (identical reachability views).").Add(f.DecideCacheHits)
}
