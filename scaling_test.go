//go:build scaling

package marlin_test

import (
	"math"
	"runtime"
	"testing"

	"marlin/internal/race"
)

// TestShardScaling4 holds the sharded event core to its purpose: with at
// least 4 CPUs to run on, the benchShardFatTree simulation split into 4
// shards runs at least 2x faster than the same partitioned build on one
// worker. Below 4 CPUs the ratio measures nothing and the test skips; it
// skips under -race too.
//
// The ratio needs the CPUs to itself, so the test sits behind the scaling
// build tag, out of the parallel `go test ./...`, and runs alone:
//
//	go test -tags scaling -run '^TestShardScaling4$' -count=1 -v .
//
// The two shard counts are measured alternately, three times each, and the
// best of each is compared, so one disturbed run cannot decide the result.
func TestShardScaling4(t *testing.T) {
	if cpus := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); cpus < 4 {
		t.Skipf("%d CPUs: the 4-shard speedup needs at least 4", cpus)
	}
	if race.Enabled {
		t.Skip("timing is meaningless under -race")
	}
	best := func(shards int, sofar int64) int64 {
		r := testing.Benchmark(benchShardFatTree(shards))
		if r.N == 0 {
			t.Fatalf("the %d-shard benchmark failed", shards)
		}
		return min(sofar, r.NsPerOp())
	}
	one, four := int64(math.MaxInt64), int64(math.MaxInt64)
	for round := 0; round < 3; round++ {
		one, four = best(1, one), best(4, four)
	}
	speedup := float64(one) / float64(four)
	t.Logf("fattree:4, 12 flows, best of 3: %d ns/op at 1 shard, %d at 4: %.2fx", one, four, speedup)
	if speedup < 2 {
		t.Errorf("4-shard fat-tree speedup %.2fx on %d CPUs, want >= 2x", speedup, runtime.NumCPU())
	}
}
