package kv

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkWALSyncFanout measures the durability wait of cross-shard commits:
// after the gates drop, the committer must wait for every participant shard's
// group commit. The wait posts a request to every participant's log and then
// collects them one by one on the committing goroutine, so the shards'
// appenders run their group cycles (window + fsync) in parallel and a span-N
// commit should cost about one cycle, not N — the per-span arms show how far
// the slowest of N overlapped cycles drifts from that.
func BenchmarkWALSyncFanout(b *testing.B) {
	s, _, err := Open(Config{Shards: 16, Buckets: 64},
		DurableConfig{Dir: b.TempDir(), FsyncBatch: 8, FsyncInterval: 200 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}()

	// One key per shard, found by probing the router, so a span-N commit
	// touches exactly N distinct shards (and therefore N WAL group commits).
	shardKey := make([][]byte, s.Shards())
	for probe := 0; ; probe++ {
		k := []byte(fmt.Sprintf("fan-%05d", probe))
		sid := s.KeyShard(k)
		if shardKey[sid] == nil {
			shardKey[sid] = k
			s.Set(k, []byte("0"))
			done := true
			for _, have := range shardKey {
				if have == nil {
					done = false
					break
				}
			}
			if done {
				break
			}
		}
	}

	for _, span := range []int{2, 4, 8} {
		keys := shardKey[:span]
		b.Run(fmt.Sprintf("span=%d", span), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := s.AtomicKeys(keys, func(t *Tx) error {
					for _, k := range keys {
						t.Set(k, []byte("v"))
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
