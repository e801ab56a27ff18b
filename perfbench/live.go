package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// subscribe opens the live workload's subscriptions: one Window(1) plan
// per pair of neighbouring live streams, at the leader of g0, over the
// second client connection.
func (e *env) subscribe(ctx context.Context) error {
	c, err := dialClient(e.d.groups[0].leader().srv.addr, "leader", e.tr)
	if err != nil {
		return err
	}
	e.split.subs = c
	sctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	n := len(e.live)
	for j := range e.live {
		s, err := e.live[j].os.Query().Streams(e.live[(j+1)%n].os).Window(1).
			Stats(client.Sum, client.Count).Subscribe(sctx)
		if err != nil {
			return fmt.Errorf("subscribe %s: %w", e.live[j].uuid, err)
		}
		e.subs = append(e.subs, s)
	}
	return nil
}

// liveResult is what one open-loop live phase measured (times in ns),
// after its warm-up.
type liveResult struct {
	ack, query, push, late []float64
	records                int64
	queries                int
	deltas, resyncs        int
	elapsed                time.Duration
}

// runLive is the open loop: one goroutine appends single chunks with
// synchronous AppendChunk at a constant rate, round-robin over the live
// streams; one issues dashboard queries over recent windows on a fixed
// schedule; the subscriptions deliver every completed window. Each
// request is timed from when it was due, and each delta from when the
// last chunk of its window was due. The loop first runs sz.liveWarmup
// unmeasured: its requests and deltas are checked like all others but
// not timed or counted. The subscriptions end with the phase.
func (e *env) runLive(dur time.Duration) liveResult {
	sz := e.cfg.sz
	n := len(e.live)
	base := e.live[0].os.Count()
	start := time.Now().Add(20 * time.Millisecond)
	from := start.Add(sz.liveWarmup)
	end := from.Add(dur)
	measured := func(due time.Time) bool { return !due.Before(from) }
	chunkDue := func(j int, idx uint64) time.Time {
		k := int64(idx-base)*int64(n) + int64(j)
		return start.Add(time.Duration(float64(k) / sz.liveRate * float64(time.Second)))
	}
	var res liveResult
	var mu sync.Mutex
	var recs atomic.Int64

	// Subscribers receive; they issue no requests.
	var subWG sync.WaitGroup
	progress := make([]atomic.Uint64, len(e.subs))
	for j, s := range e.subs {
		progress[j].Store(s.FirstSeq())
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			a, b := e.live[j], e.live[(j+1)%n]
			var push []float64
			resyncs := 0
			for s.Next() {
				d := s.Delta()
				now := time.Now()
				want := progress[j].Load()
				if d.Seq != want {
					e.ops.fail(fmt.Errorf("subscription %d: delta %d, want %d", j, d.Seq, want))
					break
				}
				ref := refOf([]*refStream{a, b}, d.Seq, d.Seq+1)
				var err error
				if d.Agg.Count() != ref.count || d.Agg.Sum() != ref.sum {
					err = fmt.Errorf("subscription %d window %d: count %d sum %d, want %d %d",
						j, d.Seq, d.Agg.Count(), d.Agg.Sum(), ref.count, ref.sum)
				}
				e.ops.done(err)
				due := chunkDue(j, d.Seq)
				if d2 := chunkDue((j+1)%n, d.Seq); d2.After(due) {
					due = d2
				}
				if measured(due) {
					push = append(push, float64(now.Sub(due)))
					if d.Resync {
						resyncs++
					}
				}
				progress[j].Store(d.Seq + 1)
			}
			mu.Lock()
			res.push = append(res.push, push...)
			res.deltas += len(push)
			res.resyncs += resyncs
			mu.Unlock()
		}()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // ingest
		defer wg.Done()
		var ack, late []float64
		for k := 0; ; k++ {
			due := start.Add(time.Duration(float64(k) / sz.liveRate * float64(time.Second)))
			if !due.Before(end) {
				break
			}
			time.Sleep(time.Until(due))
			if measured(due) {
				late = append(late, float64(time.Since(due)))
			}
			j := k % n
			r := e.live[j]
			idx := base + uint64(k/n)
			ctx, sp := e.tr.begin(context.Background(), "client.append", "", "InsertChunk")
			err := r.os.AppendChunk(ctx, r.points(idx))
			e.tr.end(sp)
			e.ops.done(err)
			if err == nil {
				if measured(due) {
					ack = append(ack, float64(time.Since(due)))
					recs.Add(perChunk)
				}
				r.acked.Store(idx + 1)
			}
		}
		mu.Lock()
		res.ack, res.late = ack, append(res.late, late...)
		mu.Unlock()
	}()
	go func() { // dashboard queries
		defer wg.Done()
		rng := rand.New(rand.NewPCG(e.cfg.seed, 7))
		var lat, late []float64
		ctx := context.Background()
		for q := 0; ; q++ {
			due := start.Add(time.Duration(float64(q) / sz.liveQueryRate * float64(time.Second)))
			if !due.Before(end) {
				break
			}
			time.Sleep(time.Until(due))
			if measured(due) {
				late = append(late, float64(time.Since(due)))
			}
			j := rng.IntN(n)
			var err error
			if q%2 == 0 {
				r := e.live[j]
				hi := r.acked.Load()
				err = e.statRange(ctx, e.conns[0], r.os, r, hi-uint64(sz.livePreload), hi)
			} else {
				members := make([]*refStream, 4)
				hi := ^uint64(0)
				for i := range members {
					members[i] = e.live[(j+i)%n]
					hi = min(hi, members[i].acked.Load())
				}
				const w = 4
				hi -= hi % w
				lo := uint64(0)
				if hi > 4*w {
					lo = hi - 4*w
				}
				err = e.plan(ctx, e.conns[0], members, lo, hi, w)
			}
			e.ops.done(err)
			if err == nil && measured(due) {
				lat = append(lat, float64(time.Since(due)))
			}
		}
		mu.Lock()
		res.query, res.late = lat, append(res.late, late...)
		mu.Unlock()
	}()
	wg.Wait()
	res.elapsed = time.Since(from)

	// Every window whose chunks were acknowledged must arrive.
	deadline := time.Now().Add(5 * time.Second)
	for j := range e.subs {
		target := min(e.live[j].acked.Load(), e.live[(j+1)%n].acked.Load())
		for progress[j].Load() < target && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := progress[j].Load(); got < target {
			e.ops.fail(fmt.Errorf("subscription %d: delivered through window %d, want %d", j, got, target))
		}
	}
	e.cancel()
	subWG.Wait()
	res.records = recs.Load()
	res.queries = len(res.query)
	e.records.Add(res.records)
	return res
}
