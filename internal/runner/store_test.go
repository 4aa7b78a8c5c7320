package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// storeFor opens a store in a fresh temp dir.
func storeFor(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTripAcrossPools(t *testing.T) {
	st := storeFor(t, 0)
	j := job("histogram", core.NS)

	p1 := NewPool(2)
	p1.Disk = st
	want, err := p1.RunOne(j)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Executed() != 1 || p1.DiskHits() != 0 {
		t.Fatalf("first pool: executed=%d diskHits=%d, want 1/0", p1.Executed(), p1.DiskHits())
	}

	// A second pool — standing in for a second process — must be served
	// from disk without simulating.
	p2 := NewPool(2)
	p2.Disk = st
	got, err := p2.RunOne(j)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Executed() != 0 || p2.DiskHits() != 1 {
		t.Fatalf("second pool: executed=%d diskHits=%d, want 0/1", p2.Executed(), p2.DiskHits())
	}
	if *got != *want {
		t.Fatalf("disk round trip altered the result:\n%+v\n%+v", got, want)
	}
}

// TestStoreHitDoesNotWaitForWorkerSlot: a job whose envelope is already
// in the store is served while every worker slot is held by a running
// job — a store read must not queue behind simulations.
func TestStoreHitDoesNotWaitForWorkerSlot(t *testing.T) {
	st := storeFor(t, 0)
	stored := job("histogram", core.NS)
	want := &Result{Workload: stored.Workload, System: stored.System, Cycles: 4242}
	if err := st.Put(stored.Key(), want); err != nil {
		t.Fatal(err)
	}

	const workers = 2
	p := NewPool(workers)
	p.Disk = st
	entered := make(chan struct{}, workers)
	release := make(chan struct{})
	p.Remote = func(ctx context.Context, j Job) (*Result, error) {
		entered <- struct{}{}
		<-release
		return &Result{Workload: j.Workload, System: j.System, Cycles: 1}, nil
	}
	busy := make(chan error, 1)
	go func() {
		_, err := p.Run([]Job{job("pathfinder", core.NS), job("srad", core.NS)})
		busy <- err
	}()
	for i := 0; i < workers; i++ {
		<-entered // every slot is now held by a blocked remote job
	}

	hit := make(chan Progress, 1)
	go func() {
		var last Progress
		p.RunCtxFunc(context.Background(), []Job{stored}, func(pr Progress) { last = pr })
		hit <- last
	}()
	select {
	case pr := <-hit:
		if pr.Err != nil || !pr.Disk {
			t.Fatalf("progress = %+v, want a disk hit", pr)
		}
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatal("a stored job waited for a worker slot")
	}
	close(release)
	if err := <-busy; err != nil {
		t.Fatal(err)
	}
	if got, err := p.RunOne(stored); err != nil || got.Cycles != want.Cycles {
		t.Fatalf("stored job = %+v, %v; want the stored result", got, err)
	}
}

// entryPath returns the single entry file of a one-entry store.
func entryPath(t *testing.T, st *Store) string {
	t.Helper()
	des, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".json") {
			files = append(files, filepath.Join(st.Dir(), de.Name()))
		}
	}
	if len(files) != 1 {
		t.Fatalf("store holds %d entries, want 1", len(files))
	}
	return files[0]
}

func TestStoreTruncatedEntryRecomputes(t *testing.T) {
	st := storeFor(t, 0)
	j := job("histogram", core.NS)
	p := NewPool(1)
	p.Disk = st
	if _, err := p.RunOne(j); err != nil {
		t.Fatal(err)
	}

	// Truncate the entry mid-JSON, as a crashed writer without the atomic
	// rename would have left it.
	path := entryPath(t, st)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(st.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewPool(1)
	p2.Disk = st2
	if _, err := p2.RunOne(j); err != nil {
		t.Fatal(err)
	}
	if p2.Executed() != 1 || p2.DiskHits() != 0 {
		t.Fatalf("truncated entry: executed=%d diskHits=%d, want recompute (1/0)",
			p2.Executed(), p2.DiskHits())
	}
	// The corrupt file was discarded and replaced by the recomputed entry.
	if _, _, _, _, corrupt := st2.Stats(); corrupt != 1 {
		t.Fatalf("corrupt discard count = %d, want 1", corrupt)
	}
	if got, ok := st2.Load(j.Key()); !ok || got == nil {
		t.Fatal("recomputed entry not rewritten to the store")
	}
}

func TestStoreWrongVersionEntryRecomputes(t *testing.T) {
	st := storeFor(t, 0)
	j := job("histogram", core.NS)
	p := NewPool(1)
	p.Disk = st
	if _, err := p.RunOne(j); err != nil {
		t.Fatal(err)
	}

	// Rewrite the entry as if a previous simulator generation produced it.
	path := entryPath(t, st)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ent map[string]any
	if err := json.Unmarshal(data, &ent); err != nil {
		t.Fatal(err)
	}
	ent["sim"] = "sim-00000000"
	stale, err := json.Marshal(ent)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(st.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Load(j.Key()); ok {
		t.Fatal("wrong-sim-version entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("stale entry not discarded")
	}
}

// TestStoreConcurrentWritersDeterministic races two pools (two simulated
// processes) writing the same key into one directory: renames are atomic
// and identical jobs serialize to identical bytes, so last-writer-wins
// must leave exactly one valid, byte-deterministic entry.
func TestStoreConcurrentWritersDeterministic(t *testing.T) {
	dir := t.TempDir()
	j := job("histogram", core.NS)
	run := func() *Result {
		st, err := OpenStore(dir, 0)
		if err != nil {
			t.Error(err)
			return nil
		}
		p := NewPool(2)
		p.Disk = st
		res, err := p.RunOne(j)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	var wg sync.WaitGroup
	results := make([]*Result, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = run()
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil || *r != *results[0] {
			t.Fatalf("writer %d result diverged", i)
		}
	}

	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d entries after racing writers, want 1", st.Len())
	}
	got, ok := st.Load(j.Key())
	if !ok {
		t.Fatal("no valid entry after racing writers")
	}
	if *got != *results[0] {
		t.Fatal("surviving entry does not match the computed result")
	}
	// Byte-determinism: the surviving file equals a fresh marshal.
	onDisk, err := os.ReadFile(entryPath(t, st))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(storeEntry{Schema: StoreSchema, Sim: SimVersion, Key: j.Key(), Result: results[0]})
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(want)+"\n" {
		t.Fatal("surviving entry bytes are not the canonical serialization")
	}
}

func TestStoreLRUEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"job-a", "job-b", "job-c"}
	for _, k := range keys {
		if err := st.Put(k, &Result{Workload: k}); err != nil {
			t.Fatal(err)
		}
	}
	entrySize := st.SizeBytes() / 3

	// Force a recency order older than any later write: a < b < c.
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		path := filepath.Join(dir, fileName(k))
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, when, when); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen with room for ~3 entries and touch job-a: recency now
	// b < c < a, so adding a fourth entry must evict job-b first.
	st, err = OpenStore(dir, 3*entrySize+entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load("job-a"); !ok {
		t.Fatal("job-a missing before eviction")
	}
	if err := st.Put("job-d", &Result{Workload: "job-d"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load("job-b"); ok {
		t.Fatal("least-recently-used entry job-b survived eviction")
	}
	for _, k := range []string{"job-a", "job-c", "job-d"} {
		if _, ok := st.Load(k); !ok {
			t.Fatalf("entry %s wrongly evicted", k)
		}
	}
	if _, _, _, evictions, _ := st.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}
