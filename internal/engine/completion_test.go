package engine_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
)

// wantCompleted is the completion oracle: the cells whose result is in
// the engine's memo or whose record path os.Stat finds.
func wantCompleted(e *engine.Engine, keys, addrs []string) []int {
	want := []int{}
	for i, key := range keys {
		if e.InMemo(key) {
			want = append(want, i)
		} else if _, err := os.Stat(e.Store().RecordPath(addrs[i])); err == nil {
			want = append(want, i)
		}
	}
	return want
}

func checkProbe(t *testing.T, e *engine.Engine, p *engine.CompletionProbe, keys, addrs []string) {
	t.Helper()
	got := p.Completed()
	if want := wantCompleted(e, keys, addrs); !slices.Equal(got, want) {
		t.Fatalf("probe completed %v, want %v", got, want)
	}
}

func addressesOf(keys []string) []string {
	addrs := make([]string, len(keys))
	for i, k := range keys {
		addrs[i] = engine.AddressOfKey(k)
	}
	return addrs
}

// TestCompletionWarmProbeStatsShards: once every shard's last probe is
// settled, a probe of an unchanged store stats each shard directory that
// holds a pending cell once and no record file; a record another engine
// then writes is seen on the next probe, which stats only its shard's
// pending records.
func TestCompletionWarmProbeStatsShards(t *testing.T) {
	dir := t.TempDir()
	open := func() *engine.Store {
		st, err := engine.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	e := engine.New(engine.Options{Store: open()})
	other := open()

	var keys []string
	for i := range 300 {
		keys = append(keys, fmt.Sprintf("grid-%d", i))
	}
	addrs := addressesOf(keys)
	for i, key := range keys {
		switch {
		case i%10 == 1:
			e.Adopt(key, sim.Result{}) // memo and store
		case i%3 == 0:
			if err := other.Put(key, sim.Result{}); err != nil { // store only
				t.Fatal(err)
			}
		}
	}
	pendingShards := map[string]bool{}
	var absent int // a pending cell with no record yet
	for i, addr := range addrs {
		if !e.InMemo(keys[i]) {
			pendingShards[addr[:2]] = true
			if i%3 != 0 {
				absent = i
			}
		}
	}
	p := e.CompletionProbe(keys, addrs)
	checkProbe(t, e, p, keys, addrs)

	// Raise the store's witness above every grid shard's mtime: write a
	// record into a shard outside the grid until its directory's mtime
	// passes theirs, and let a probe observe it.
	var newest time.Time
	for sh := range pendingShards {
		if info, err := os.Stat(filepath.Join(dir, sh)); err == nil && info.ModTime().After(newest) {
			newest = info.ModTime()
		}
	}
	var wkey string
	for i := 0; wkey == ""; i++ {
		if k := fmt.Sprintf("witness-%d", i); !pendingShards[engine.AddressOfKey(k)[:2]] {
			wkey = k
		}
	}
	waddr := engine.AddressOfKey(wkey)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if err := other.Put(wkey, sim.Result{}); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, waddr[:2]))
		if err != nil {
			t.Fatal(err)
		}
		if info.ModTime().After(newest) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the witness shard's mtime never passed the grid's")
		}
	}
	if got := e.CompletionProbe([]string{wkey}, []string{waddr}).Completed(); len(got) != 1 {
		t.Fatalf("witness probe completed %v", got)
	}

	checkProbe(t, e, p, keys, addrs) // settles every grid shard
	dirs0, records0 := p.StatCounts()
	checkProbe(t, e, p, keys, addrs)
	dirs1, records1 := p.StatCounts()
	if records1 != records0 || dirs1-dirs0 > len(pendingShards) {
		t.Errorf("warm probe of an unchanged store: %d directory and %d record stats, want at most %d and 0",
			dirs1-dirs0, records1-records0, len(pendingShards))
	}

	if err := other.Put(keys[absent], sim.Result{}); err != nil {
		t.Fatal(err)
	}
	checkProbe(t, e, p, keys, addrs)
	var inShard int
	for i, addr := range addrs {
		if addr[:2] == addrs[absent][:2] && !e.InMemo(keys[i]) {
			inShard++
		}
	}
	if _, records2 := p.StatCounts(); records2-records1 != inShard {
		t.Errorf("after another engine's Put: %d record stats, want %d (the changed shard's pending cells)",
			records2-records1, inShard)
	}
}

// completionCells returns six keys whose records lie two to a shard in
// three shard directories, found by counting through candidate keys.
func completionCells() []string {
	byShard := map[string][]string{}
	var keys []string
	for i := 0; len(keys) < 6; i++ {
		k := fmt.Sprintf("cell-%d", i)
		sh := engine.AddressOfKey(k)[:2]
		byShard[sh] = append(byShard[sh], k)
		if len(byShard[sh]) == 2 {
			keys = append(keys, byShard[sh]...)
		}
	}
	return keys
}

// FuzzCompletion holds CompletionProbe to its oracle — the memo, plus the
// cells whose record path os.Stat finds — after every probe of a fuzzed
// sequence of store and memo operations over six cells in three shards.
// Each operation is two bytes, an opcode and an argument:
//
//	0 Put through a second Store on the same directory
//	1 Remove through the probing engine's Store (the GC primitive)
//	2 overwrite a record with garbage, then Get it so the heal deletes it
//	3 Adopt into the probing engine's memo (and store)
//	4 delete a whole shard directory
//	5 set a shard directory's mtime into the past, each time to an
//	  instant not used before, as a directory untouched for a while has
//	6 probe, with the probe over all six cells or the one over three
//
// The target never sleeps, and it freezes the filesystem clock: after
// each of operations 0-3 it sets the touched shard directory's mtime to
// one fixed instant, as a coarse clock stamps every change within one
// tick. That is the case the settled rule exists for, and this way it
// happens on every filesystem, including those whose timestamps are
// fine-grained enough that a real change would always be seen.
func FuzzCompletion(f *testing.F) {
	keys := completionCells()
	addrs := addressesOf(keys)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		dir := t.TempDir()
		st, err := engine.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		other, err := engine.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.Options{Store: st})
		probes := []*engine.CompletionProbe{
			e.CompletionProbe(keys, addrs),
			e.CompletionProbe(keys[1:4], addrs[1:4]),
		}
		check := func(which int) {
			t.Helper()
			from := []int{0, 1}[which]
			n := []int{6, 3}[which]
			checkProbe(t, e, probes[which], keys[from:from+n], addrs[from:from+n])
		}
		tick := time.Now().Add(-time.Hour)
		past := tick
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			key, addr := keys[arg%6], addrs[arg%6]
			shard := filepath.Join(dir, addrs[2*(arg%3)][:2])
			op := ops[i] % 7
			switch op {
			case 0:
				if err := other.Put(key, sim.Result{}); err != nil {
					t.Fatal(err)
				}
			case 1:
				st.Remove(addr)
			case 2:
				if os.WriteFile(st.RecordPath(addr), []byte("{"), 0o644) == nil {
					if _, ok := st.Get(key); ok {
						t.Fatal("Get served a corrupt record")
					}
				}
			case 3:
				e.Adopt(key, sim.Result{})
			case 4:
				if err := os.RemoveAll(shard); err != nil {
					t.Fatal(err)
				}
			case 5:
				past = past.Add(-time.Second)
				os.Chtimes(shard, past, past) //nolint:errcheck // an absent shard stays absent
			case 6:
				check(arg % 2)
			}
			if op <= 3 {
				os.Chtimes(filepath.Join(dir, addr[:2]), tick, tick) //nolint:errcheck // absent after a Remove of nothing
			}
		}
		check(0)
		check(1)
	})
}

// FuzzStoreOpen writes fuzzed bytes as a record, and as a file of a
// fuzzed name in the same shard directory, then runs the store's whole
// read surface over it: Open, Len, Entries, Get, Remove and a completion
// probe. None may panic, Entries lists only address-shaped records, and
// Open fails only with a wrapped error.
func FuzzStoreOpen(f *testing.F) {
	key := fuzzKey()
	valid, err := engine.ExportResult(key, sim.Result{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, "x.json")
	f.Add(valid, strings.Repeat("0", 62)+".json")
	f.Add([]byte("{"), ".tmp-1")
	f.Add([]byte(`{"version": 99}`), strings.Repeat("a", 62)+".timeline")
	f.Add([]byte(`{"version": 1, "key": "k"}`), "..")
	f.Add([]byte{}, "sub")

	f.Fuzz(func(t *testing.T, data []byte, name string) {
		dir := t.TempDir()
		addr := engine.AddressOfKey(key)
		shard := filepath.Join(dir, addr[:2])
		if err := os.MkdirAll(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, addr[2:]+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		named := name != "" && name != "." && name != ".." && len(name) <= 200 &&
			!strings.ContainsAny(name, "/\x00") &&
			os.WriteFile(filepath.Join(shard, name), data, 0o644) == nil

		st, err := engine.Open(dir)
		if err != nil {
			t.Fatalf("Open of a readable directory: %v", err)
		}
		st.Len()
		for _, entry := range st.Entries() {
			if len(entry.Address) != 64 {
				t.Fatalf("Entries listed %q", entry.Address)
			}
		}
		e := engine.New(engine.Options{Store: st})
		otherAddr := addr[:2] + strings.TrimSuffix(name, ".json")
		p := e.CompletionProbe([]string{key, name}, []string{addr, otherAddr})
		p.Completed()
		st.Get(key)
		p.Completed()
		st.Remove(addr)
		st.Remove(otherAddr)
		st.Remove(name)
		p.Completed()
		if named {
			if _, err := engine.Open(filepath.Join(shard, name, "store")); err != nil && errors.Unwrap(err) == nil {
				t.Fatalf("Open error is not wrapped: %v", err)
			}
		}
	})
}
