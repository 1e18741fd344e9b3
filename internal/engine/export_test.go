package engine

// StatCounts returns how many shard-directory and record stats the probe
// has made.
func (p *CompletionProbe) StatCounts() (dirs, records int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dirStats, p.recordStats
}

// InMemo reports whether the result for key is in the engine's memo.
func (e *Engine) InMemo(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.memo[key]
	return ok
}

// RecordPath returns the path of the record for a content address.
func (s *Store) RecordPath(addr string) string { return s.addrPath(addr) }
