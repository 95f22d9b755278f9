package heapgraph

// This file implements the lock-striped degree-count structure behind
// the graph's O(1) metric reads. The concurrent monitoring pipeline
// (package logger) mutates the graph on a single consumer goroutine
// while other goroutines — live-status readers, the benchmark
// harness — read the degree counts concurrently. Plain int
// histograms would make every such read a data race; a single mutex
// would put a lock acquisition on the mutation hot path. Instead the
// counts are striped across shards of padded atomic counters, selected
// by vertex ID: a mutation touches exactly one shard per affected
// vertex (no cross-shard coordination), and a read sums a fixed number
// of shards — constant work regardless of graph size.
//
// Counts read while a mutation is in flight are eventually consistent:
// a reader can observe the decrement of a vertex's old degree bucket
// before the increment of its new one. Every mutator restores exact
// balance before returning, so quiescent reads (and anything on the
// consumer goroutine) are exact.

import "sync/atomic"

// numShards is the number of count stripes. Vertex IDs are assigned
// sequentially by the logger, so modular selection spreads consecutive
// allocations across all shards.
const numShards = 16

// countShard holds one stripe of the degree histograms. The trailing
// pad keeps shards on distinct cache lines so mutators hitting
// different shards do not false-share.
type countShard struct {
	inHist  [maxTracked + 2]atomic.Int64
	outHist [maxTracked + 2]atomic.Int64
	eq      atomic.Int64
	_       [64]byte
}

// shardedCounts is the striped histogram set: shardedCounts[s] tallies
// only vertices whose ID maps to stripe s.
type shardedCounts struct {
	shards [numShards]countShard
}

func (c *shardedCounts) shard(v VertexID) *countShard {
	return &c.shards[uint64(v)%numShards]
}

// reset zeroes every count. Writer goroutine only.
func (c *shardedCounts) reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		for b := range sh.inHist {
			sh.inHist[b].Store(0)
			sh.outHist[b].Store(0)
		}
		sh.eq.Store(0)
	}
}

func (c *shardedCounts) sumIn(b int) int {
	var n int64
	for i := range c.shards {
		n += c.shards[i].inHist[b].Load()
	}
	return int(n)
}

func (c *shardedCounts) sumOut(b int) int {
	var n int64
	for i := range c.shards {
		n += c.shards[i].outHist[b].Load()
	}
	return int(n)
}

func (c *shardedCounts) sumEq() int {
	var n int64
	for i := range c.shards {
		n += c.shards[i].eq.Load()
	}
	return int(n)
}
