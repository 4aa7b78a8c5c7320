package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
)

// TestSweepResultsMatchRecordedDigests runs every seed-1 job of the
// benchmark's sweep set and compares sha256(json.Marshal(Result)) with
// the digests the benchmark records in perfbench/digests.json, which it
// only reads. The golden figure tables do not see every Result field —
// Events, the fired-event count, appears in none of them — so a change
// that moves only the event count passes TestFigureDigestsMatchGolden
// and still fails the benchmark's correctness check; this test catches
// it in tier 1.
func TestSweepResultsMatchRecordedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 CI-scale simulations; run without -short")
	}
	buf, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bySeed map[string]map[string]string
	if err := json.Unmarshal(buf, &bySeed); err != nil {
		t.Fatal(err)
	}
	want := bySeed["1"]
	if len(want) == 0 {
		t.Fatal("perfbench/digests.json records no seed-1 digests")
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cfg := DefaultConfig()
	jobs := make([]runner.Job, len(keys))
	for i, k := range keys {
		// Keys read workload|system|scale|core|seed=N.
		f := strings.Split(k, "|")
		sys, err := core.ParseSystem(f[1])
		if err != nil {
			t.Fatalf("key %q: %v", k, err)
		}
		jobs[i] = cfg.Job(f[0], sys)
		if jobs[i].Key() != k {
			t.Fatalf("recorded key %q, default config builds %q", k, jobs[i].Key())
		}
	}
	results, err := runner.NewPool(0).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		out, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != want[k] {
			t.Errorf("%s: result digest %s, recorded %s (cycles %d, events %d)",
				k, got[:16], want[k][:16], results[i].Cycles, results[i].Events)
		}
	}
}
