package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/client"
	"repro/internal/workload"
)

// Stream geometry shared by every workload: DevOps hosts, one record per
// 10 s, one-minute chunks (6 records), the default 19-element digest and
// zlib payloads.
const (
	epochMS    = int64(1_700_000_000_000)
	intervalMS = int64(60_000)
	perChunk   = 6
)

// refStream is one stream with the plaintext reference the benchmark
// checks the system's answers against. prefix/prefixSq hold running sums
// of values and squared values over chunks, computed from the generator
// before any chunk is sent, up to the most chunks the run can write.
type refStream struct {
	uuid     string
	os       *client.OwnerStream
	gen      *workload.DevOps
	prefix   []int64
	prefixSq []float64
	acked    atomic.Uint64 // chunks acknowledged by the system
	conn     int           // index of the connection its owner handle uses
}

func newRefStream(uuid string, seed uint64, maxChunks int) *refStream {
	r := &refStream{uuid: uuid, gen: workload.NewDevOps(seed)}
	r.prefix = make([]int64, maxChunks+1)
	r.prefixSq = make([]float64, maxChunks+1)
	for i := 0; i < maxChunks; i++ {
		var s int64
		var sq float64
		for _, p := range r.points(uint64(i)) {
			s += p.Val
			sq += float64(p.Val) * float64(p.Val)
		}
		r.prefix[i+1] = r.prefix[i] + s
		r.prefixSq[i+1] = r.prefixSq[i] + sq
	}
	return r
}

func (r *refStream) points(i uint64) []chunk.Point { return r.gen.Chunk(i, epochMS, intervalMS) }

func (r *refStream) create(ctx context.Context, o *client.Owner) error {
	var err error
	r.os, err = o.CreateStream(ctx, client.StreamOptions{UUID: r.uuid, Epoch: epochMS, Interval: intervalMS})
	return err
}

func chunkTS(i uint64) int64 { return epochMS + int64(i)*intervalMS }

// ref is the expected count, sum and sum of squares of chunks [a, b) over
// a set of streams.
type ref struct {
	count uint64
	sum   int64
	sq    float64
}

func refOf(streams []*refStream, a, b uint64) ref {
	var r ref
	for _, s := range streams {
		r.count += perChunk * (b - a)
		r.sum += s.prefix[b] - s.prefix[a]
		r.sq += s.prefixSq[b] - s.prefixSq[a]
	}
	return r
}

func (r ref) mean() float64 { return float64(r.sum) / float64(r.count) }
func (r ref) variance() float64 {
	m := r.mean()
	return r.sq/float64(r.count) - m*m
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }

// checkResult compares a decrypted single-stream answer with its reference.
func checkResult(res chunk.Result, want ref) error {
	if res.Count != want.count || res.Sum != want.sum {
		return fmt.Errorf("stat: got count %d sum %d, want %d %d", res.Count, res.Sum, want.count, want.sum)
	}
	return nil
}

// checkAgg compares one window of a Mean/Var plan with its reference.
func checkAgg(a client.Agg, want ref) error {
	if !near(a.Mean(), want.mean()) || !near(a.Var(), want.variance()) {
		return fmt.Errorf("plan window [%d,%d): got mean %g var %g, want %g %g",
			a.FromChunk, a.ToChunk, a.Mean(), a.Var(), want.mean(), want.variance())
	}
	return nil
}
