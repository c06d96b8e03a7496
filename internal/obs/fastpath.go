package obs

// FastPath groups the fast-path counters of one simulation run
// (DESIGN.md §9): checks answered by a signer's board or the proof ledger
// (hits) and checks that called Verify (misses), duplicate
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
