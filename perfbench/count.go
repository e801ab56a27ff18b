package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
)

// exact are the per-layer counts of the count pass: a fixed, sequential
// piece of work on two dedicated streams (one per group) that every run
// does right after set-up, so the counts repeat exactly for a seed.
type exact struct {
	BytesPerChunk       float64 // client connection bytes, both directions
	OpsPerChunk         float64 // kv write ops, all members
	IndexWritesPerChunk float64 // index node writes, all members
	BytesPerQuery       float64
	IndexReadsPerQuery  float64 // index node reads from the store (cache misses)
	ShardCallsPerQuery  float64
}

type kvTotals struct{ writes, indexWrites, indexReads, shardCalls int64 }

func (d *deployment) kvTotals() kvTotals {
	var t kvTotals
	for _, m := range d.members() {
		t.writes += m.store.writes.Load()
		t.indexWrites += m.store.indexWrites.Load()
		t.indexReads += m.store.indexReads.Load()
	}
	for _, g := range d.groups {
		t.shardCalls += g.shard.calls.Load()
	}
	return t
}

// countPass writes countChunks chunks to each count stream through
// Writers, waits for every follower, then issues countQueries queries one
// at a time: single-stream StatRange and a two-stream plan across groups.
func (e *env) countPass() (exact, error) {
	sz := e.cfg.sz
	conn := e.conns[0]
	// Followers may still be applying set-up writes; count none of them.
	if !e.d.converged(10 * time.Second) {
		return exact{}, fmt.Errorf("count pass: followers did not catch up with set-up")
	}
	b0, k0 := conn.conn.bytes(), e.d.kvTotals()
	if err := e.writeChunks(e.count, sz.countChunks, nil); err != nil {
		return exact{}, err
	}
	if !e.d.converged(10 * time.Second) {
		return exact{}, fmt.Errorf("count pass: followers did not catch up")
	}
	b1, k1 := conn.conn.bytes(), e.d.kvTotals()
	rng := rand.New(rand.NewPCG(e.cfg.seed, 3))
	n := uint64(sz.countChunks)
	ctx := context.Background()
	for q := 0; q < sz.countQueries; q++ {
		var err error
		if q%2 == 0 {
			r := e.count[(q/2)%len(e.count)]
			a, b := randRange(rng, n, 1)
			err = e.statRange(ctx, conn, r.os, r, a, b)
		} else {
			a, b := randRange(rng, n, sz.planWindow)
			err = e.plan(ctx, conn, e.count, a, b, sz.planWindow)
		}
		e.ops.done(err)
	}
	b2, k2 := conn.conn.bytes(), e.d.kvTotals()
	chunks := float64(sz.countChunks * len(e.count))
	queries := float64(sz.countQueries)
	return exact{
		BytesPerChunk:       float64(b1-b0) / chunks,
		OpsPerChunk:         float64(k1.writes-k0.writes) / chunks,
		IndexWritesPerChunk: float64(k1.indexWrites-k0.indexWrites) / chunks,
		BytesPerQuery:       float64(b2-b1) / queries,
		IndexReadsPerQuery:  float64(k2.indexReads-k1.indexReads) / queries,
		ShardCallsPerQuery:  float64(k2.shardCalls-k1.shardCalls) / queries,
	}, nil
}

// allocChunks is how many seals an allocation count covers. They run on
// one P with the collector paused: Seal draws from sync.Pools, which are
// per P and emptied by a collection, so otherwise the count would depend
// on scheduling. The least of allocRuns counts is reported: now and then
// an allocation from outside Seal (the runtime, the test harness) lands in
// a window.
const (
	allocChunks = 32
	allocRuns   = 3
)

// sealReplay seals n of the workload's own chunks (chunk i of stream
// i mod len(streams)) with fresh key trees, exactly as an owner does, and
// returns the median time per chunk and the bytes allocated per chunk. It
// runs once the deployment's goroutines have exited (baseline is the
// goroutine count from before it started), so nothing else allocates
// while it counts.
func sealReplay(streams []*refStream, n, baseline int) (medianNS, allocBytes float64, err error) {
	if n < allocChunks {
		return 0, 0, fmt.Errorf("seal replay: %d chunks, need at least %d", n, allocChunks)
	}
	spec := chunk.DefaultSpec()
	pts := make([][]chunk.Point, n)
	for i := range pts {
		pts[i] = streams[i%len(streams)].points(uint64(i))
	}
	seal := func(enc *core.Encryptor, i int) error {
		idx := uint64(i)
		_, err := chunk.Seal(enc, spec, chunk.CompressionZlib, idx, chunkTS(idx), chunkTS(idx+1), pts[i])
		return err
	}
	newEncryptor := func() (*core.Encryptor, error) {
		tree, err := core.GenerateTree(core.NewPRG(core.PRGAES), core.DefaultTreeHeight)
		if err != nil {
			return nil, err
		}
		return core.NewEncryptor(tree.NewWalker()), nil
	}
	if !quiesce(baseline) {
		return 0, 0, fmt.Errorf("seal replay: %d goroutines still running, %d before the deployment", runtime.NumGoroutine(), baseline)
	}
	allocBytes = math.Inf(1)
	for r := 0; r < allocRuns; r++ {
		enc, err := newEncryptor()
		if err != nil {
			return 0, 0, err
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		procs := runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&m0)
		for i := 0; i < allocChunks && err == nil; i++ {
			err = seal(enc, i)
		}
		runtime.ReadMemStats(&m1)
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
		if err != nil {
			return 0, 0, err
		}
		allocBytes = min(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/allocChunks)
	}
	enc, err := newEncryptor()
	if err != nil {
		return 0, 0, err
	}
	times := make([]float64, n)
	for i := range times {
		t0 := time.Now()
		if err := seal(enc, i); err != nil {
			return 0, 0, err
		}
		times[i] = float64(time.Since(t0))
	}
	sort.Float64s(times)
	return times[n/2], allocBytes, nil
}

// quiesce waits, up to five seconds, until no more goroutines run than
// the baseline counted before the deployment started, so that none of a
// stopped deployment's goroutines allocates while seals are counted. It
// reports whether that happened.
func quiesce(baseline int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}
