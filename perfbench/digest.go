package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/runner"
)

// resultDigest hashes every simulated statistic of one job: the Result's
// JSON form, whose field order is fixed by the struct and whose floats
// round-trip exactly, so a result decoded from the daemon's wire form
// digests the same as the in-process value.
func resultDigest(r *runner.Result) string {
	buf, err := json.Marshal(r)
	if err != nil {
		panic(err) // a Result is plain data; Marshal cannot fail
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// digests maps a job key to its result digest.
type digests map[string]string

// batchDigest folds per-job digests, in key order, into one line.
func (d digests) batchDigest() string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, d[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// check compares got against want for every key of got and returns the
// keys that mismatch or have no reference, sorted.
func (want digests) check(got digests) []string {
	var bad []string
	for k, g := range got {
		if w, ok := want[k]; !ok || w != g {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}

// recordedJSON holds the per-job digests of the sweep job set (which
// contains the sharded job set) at shards = 1 for the recorded seeds:
// the default seed and a held-out one. Regenerate it with
// `perfbench -record-digests 1,7` after a change that is meant to alter
// simulated output.
//
//go:embed digests.json
var recordedJSON []byte

// recorded returns the recorded digests for a seed, or nil when the seed
// has none (the run then checks against a fresh reference run).
func recorded(seed uint64) digests {
	var all map[string]digests
	if err := json.Unmarshal(recordedJSON, &all); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return all[strconv.FormatUint(seed, 10)]
}
