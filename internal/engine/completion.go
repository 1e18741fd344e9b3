package engine

import (
	"errors"
	"io/fs"
	"os"
	"sync"
	"time"
)

// CompletionProbe answers, for a fixed list of canonical job keys, which
// results exist: in the engine's memo, or as a record in its store. It
// is the read the analytics layer revalidates with on every request, so
// it is built once per key list and keeps what it learned between
// probes:
//
//   - A cell found in the memo stays complete: the memo never deletes.
//     The other cells are checked under one engine-lock acquisition per
//     probe.
//   - Store cells are grouped by shard directory (dir/<hh>). Each probe
//     stats every shard directory that holds a pending cell once. If the
//     directory's (exists, mtime, size) equal those of its last probe
//     and that probe was settled, its cells keep their last answers;
//     otherwise its pending records are stat'd.
//
// A shard's probe is settled when no later change to the directory can
// stamp the mtime it saw: the directory was absent (its only possible
// change is to appear), or its mtime is strictly older than the store's
// witness read before the probe began — a shard mtime some earlier probe
// observed, so the filesystem clock had passed it. A record is created,
// replaced or deleted only by a create, rename or unlink in its shard
// directory, which stamps the directory's mtime; so results written by
// another process sharing the store, GC removals, heals in Get and a
// shard directory deleted or recreated are all seen by the next probe.
// This is git's racy-clean rule, and it needs no clock constant.
//
// A CompletionProbe is safe for concurrent use.
type CompletionProbe struct {
	eng   *Engine
	keys  []string
	paths []string // record path per cell; "" when its address is malformed

	mu     sync.Mutex
	shards []probeShard
	inMemo []bool // sticky
	stored []bool // the cell's record existed at its shard's last probe

	// dirStats and recordStats count stat calls, for tests.
	dirStats, recordStats int
}

// probeShard is one shard directory of a CompletionProbe: the cells
// whose records it holds, and what its last probe saw. The zero state is
// unsettled, so the first probe stats the records.
type probeShard struct {
	dir   string
	cells []int

	settled, exists bool
	mtime, size     int64
}

// CompletionProbe builds the probe for keys, with addrs their content
// addresses (AddressOfKey), aligned. Addresses are validated here, once;
// a cell with a malformed address can only complete in the memo.
func (e *Engine) CompletionProbe(keys, addrs []string) *CompletionProbe {
	p := &CompletionProbe{
		eng:    e,
		keys:   keys,
		inMemo: make([]bool, len(keys)),
		stored: make([]bool, len(keys)),
	}
	if e.store == nil {
		return p
	}
	p.paths = make([]string, len(keys))
	shardOf := make(map[string]int)
	for i, addr := range addrs {
		if !isAddress(addr) {
			continue
		}
		p.paths[i] = e.store.addrPath(addr)
		si, ok := shardOf[addr[:2]]
		if !ok {
			si = len(p.shards)
			shardOf[addr[:2]] = si
			p.shards = append(p.shards, probeShard{dir: e.store.shardPath(addr)})
		}
		p.shards[si].cells = append(p.shards[si].cells, i)
	}
	return p
}

// Completed returns the indices into the probe's keys whose results
// exist, ascending. Like a store stat, it can count a corrupt record
// complete until a read heals it; Engine.Lookup remains authoritative.
func (p *CompletionProbe) Completed() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.eng
	e.mu.Lock()
	for i, key := range p.keys {
		if !p.inMemo[i] {
			_, p.inMemo[i] = e.memo[key]
		}
	}
	e.mu.Unlock()
	if e.store != nil {
		p.probeStore(e.store)
	}
	n := 0
	for i := range p.keys {
		if p.inMemo[i] || p.stored[i] {
			n++
		}
	}
	done := make([]int, 0, n)
	for i := range p.keys {
		if p.inMemo[i] || p.stored[i] {
			done = append(done, i)
		}
	}
	return done
}

// probeStore refreshes the stored answers of every cell not in the memo.
func (p *CompletionProbe) probeStore(s *Store) {
	witness := s.witness.Load()
	now := time.Now().UnixNano()
	for si := range p.shards {
		sh := &p.shards[si]
		if !p.pending(sh) {
			continue
		}
		p.dirStats++
		info, err := os.Stat(sh.dir)
		exists := err == nil
		var mtime, size int64
		if exists {
			mtime, size = info.ModTime().UnixNano(), info.Size()
		}
		if sh.settled && exists == sh.exists && mtime == sh.mtime && size == sh.size {
			continue
		}
		for _, i := range sh.cells {
			if p.inMemo[i] {
				continue
			}
			if exists {
				p.recordStats++
				_, err := os.Stat(p.paths[i])
				p.stored[i] = err == nil
			} else {
				p.stored[i] = false
			}
		}
		sh.exists, sh.mtime, sh.size = exists, mtime, size
		// A stat that failed for another reason than absence (EACCES)
		// proves nothing: the next probe stats the records again.
		sh.settled = exists && mtime < witness || errors.Is(err, fs.ErrNotExist)
		if exists {
			s.observeShardTime(mtime, now)
		}
	}
}

// pending reports whether any of the shard's cells is not in the memo.
func (p *CompletionProbe) pending(sh *probeShard) bool {
	for _, i := range sh.cells {
		if !p.inMemo[i] {
			return true
		}
	}
	return false
}
