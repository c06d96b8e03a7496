package obs

// FastPath groups the fast-path counters of one simulation run
// (DESIGN.md §9): checks answered by a signer's board or the proof ledger
// (hits) and checks that called Verify (misses), duplicate
// discards from the lazy header-first decode, and decide-cache hits.
// It is embedded by value in nectar.SimulationResult and harness.Trial,
// so the fields promote. Its JSON tags name the keys of nectar-sim
// -json's "fast_path" object.
type FastPath struct {
	VerifyCacheHits   int64 `json:"verify_cache_hits"`
	VerifyCacheMisses int64 `json:"verify_cache_misses"`
	LazyDiscards      int64 `json:"lazy_discards"`
	DecideCacheHits   int64 `json:"decide_cache_hits"`
}
