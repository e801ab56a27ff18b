package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/crypto/hybrid"
)

// sizes holds every size a run uses; tests shrink them.
type sizes struct {
	producerStreams int           // ingest: streams per producer
	batchChunks     int           // chunks per Writer batch
	queryStreams    int           // query: preloaded streams, half per group
	queryChunks     int           // query: chunks preloaded per stream
	planStreams     int           // query: members of a multi-stream plan
	planWindow      uint64        // query: window of a multi-stream plan, in chunks
	cacheBytes      int64         // per-stream index cache of every engine
	liveStreams     int           // live: streams, all on group g0
	livePreload     int           // live: chunks per stream written during set-up
	liveRate        float64       // live: chunk appends per second
	liveQueryRate   float64       // live: dashboard queries per second
	liveWarmup      time.Duration // live: unmeasured open loop before timing
	countChunks     int           // count pass: chunks per count stream
	countQueries    int           // count pass: queries
	sealReplay      int           // chunks replayed through chunk.Seal
	setups          int           // set-ups per run; setup_s is their median
}

func defaultSizes() sizes {
	return sizes{
		producerStreams: 8, batchChunks: 64,
		queryStreams: 8, queryChunks: 512, planStreams: 4, planWindow: 16, cacheBytes: 16 << 10,
		liveStreams: 16, livePreload: 8, liveRate: 80, liveQueryRate: 110, liveWarmup: 2 * time.Second,
		countChunks: 256, countQueries: 32, sealReplay: 2048, setups: 5,
	}
}

// producers is the load generator's concurrency: it never has more
// request-issuing goroutines, nor more client connections, than this
// (nproc of the machine the benchmark was written on).
const producers = 2

// ops counts attempted and failed operations; the first few failures are
// kept for the report.
type ops struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []error
}

func (o *ops) done(err error) {
	o.attempted.Add(1)
	if err != nil {
		o.fail(err)
	}
}

func (o *ops) fail(err error) {
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err)
	}
	o.mu.Unlock()
}

// env is one set-up deployment with its clients and streams.
type env struct {
	cfg     *config
	tr      *tracer
	d       *deployment
	conns   []*clientConn // connections to the router
	split   *splitTransport
	ops     *ops
	ingest  [][]*refStream // per producer (ingest)
	query   []*refStream   // preloaded, alternating groups (query)
	cons    [][]*client.ConsumerStream
	granted [][]*refStream
	count   []*refStream // count pass streams, one per group
	live    []*refStream // live streams, all on group g0
	subs    []*client.Subscription
	cancel  context.CancelFunc // ends the subscriptions
	records atomic.Int64       // records acknowledged in this deployment
}

func (e *env) close() {
	if e.cancel != nil {
		e.cancel()
	}
	for _, s := range e.subs {
		s.Close()
	}
	for _, c := range e.conns {
		c.Close()
	}
	if e.split != nil && e.split.subs != nil {
		e.split.subs.Close()
	}
	e.d.close()
}

// uuidsOn picks n deterministic stream names that the router places on
// group g (anywhere when g < 0).
func uuidsOn(d *deployment, prefix string, seed uint64, n, g int) []string {
	var out []string
	for k := 0; len(out) < n; k++ {
		u := fmt.Sprintf("%s-%x-%d", prefix, seed, k)
		if g < 0 || d.groupOf(u) == d.groups[g] {
			out = append(out, u)
		}
	}
	return out
}

func streamSeed(seed uint64, name string) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range name {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

func (e *env) newStream(ctx context.Context, uuid string, maxChunks, conn int, t client.Transport) (*refStream, error) {
	r := newRefStream(uuid, streamSeed(e.cfg.seed, uuid), maxChunks)
	r.conn = conn
	return r, r.create(ctx, client.NewOwner(t))
}

// setup boots a deployment and creates and preloads every stream the run
// uses. The live workload also opens its subscriptions here.
func setup(ctx context.Context, cfg *config, tr *tracer, dir string) (*env, error) {
	d, err := deploy(dir, tr, cfg.sz.cacheBytes)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, tr: tr, d: d, ops: &ops{}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	nconns := producers
	if cfg.workload == "live" {
		nconns = 1 // the other connection goes to the g0 leader
	}
	for i := 0; i < nconns; i++ {
		c, err := dialClient(d.routerSv.addr, fmt.Sprintf("c%d", i), tr)
		if err != nil {
			return nil, err
		}
		e.conns = append(e.conns, c)
	}
	e.split = &splitTransport{main: e.conns[0]}
	sz := cfg.sz
	perStream := (cfg.seconds + sz.liveWarmup).Seconds() * sz.liveRate / float64(sz.liveStreams)
	liveMax := sz.livePreload + int(perStream*1.2) + 16

	for g := range d.groups {
		r, err := e.newStream(ctx, uuidsOn(d, "count", cfg.seed, 1, g)[0], sz.countChunks, 0, e.conns[0])
		if err != nil {
			return nil, err
		}
		e.count = append(e.count, r)
	}
	for _, u := range uuidsOn(d, "live", cfg.seed, sz.liveStreams, 0) {
		r, err := e.newStream(ctx, u, liveMax, 0, e.split)
		if err != nil {
			return nil, err
		}
		e.live = append(e.live, r)
	}
	if err := e.preload([][]*refStream{e.live}, sz.livePreload); err != nil {
		return nil, err
	}

	switch cfg.workload {
	case "ingest":
		for p := 0; p < producers; p++ {
			var mine []*refStream
			for _, u := range uuidsOn(d, fmt.Sprintf("ingest%d", p), cfg.seed, sz.producerStreams, -1) {
				// Closed-loop ingest is never queried: no reference needed.
				r, err := e.newStream(ctx, u, 0, p, e.conns[p])
				if err != nil {
					return nil, err
				}
				mine = append(mine, r)
			}
			e.ingest = append(e.ingest, mine)
		}
	case "query":
		per := make([][]*refStream, producers)
		byGroup := make([][]*refStream, len(d.groups))
		for g := range d.groups {
			for i, u := range uuidsOn(d, "query", cfg.seed, sz.queryStreams/len(d.groups), g) {
				p := (g + i) % producers
				r, err := e.newStream(ctx, u, sz.queryChunks, p, e.conns[p])
				if err != nil {
					return nil, err
				}
				per[p] = append(per[p], r)
				byGroup[g] = append(byGroup[g], r)
			}
		}
		// Alternate the groups so that neighbouring streams, and so every
		// multi-stream plan, span both.
		for i := range byGroup[0] {
			for g := range byGroup {
				e.query = append(e.query, byGroup[g][i])
			}
		}
		if err := e.preload(per, sz.queryChunks); err != nil {
			return nil, err
		}
		if err := e.grant(ctx); err != nil {
			return nil, err
		}
	case "live":
		if err := e.subscribe(ctx); err != nil {
			return nil, err
		}
	}
	ok = true
	return e, nil
}

// grant gives one consumer per connection a full-resolution grant on two
// preloaded streams, one on each group.
func (e *env) grant(ctx context.Context) error {
	for c := 0; c < producers; c++ {
		kp, err := hybrid.GenerateKeyPair()
		if err != nil {
			return err
		}
		cons := client.NewConsumer(e.conns[c], kp)
		mine := e.query[2*c : 2*c+2]
		var css []*client.ConsumerStream
		for _, r := range mine {
			if _, err := r.os.Grant(ctx, cons.PublicKey(), chunkTS(0), chunkTS(uint64(e.cfg.sz.queryChunks)), 0); err != nil {
				return err
			}
			cs, err := cons.OpenStream(ctx, r.uuid)
			if err != nil {
				return err
			}
			css = append(css, cs)
		}
		e.cons = append(e.cons, css)
		e.granted = append(e.granted, mine)
	}
	return nil
}

// preload writes n chunks to every stream, one goroutine per stream set
// (the streams of a set share one connection).
func (e *env) preload(sets [][]*refStream, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(sets))
	for i, set := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = e.writeChunks(set, n, nil)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// writeChunks appends chunks round-robin over streams through one
// pipelined Writer per stream, until each stream has n more chunks (n < 0:
// until stop closes), then flushes every Writer and records what the
// system acknowledged.
func (e *env) writeChunks(streams []*refStream, n int, stop <-chan struct{}) error {
	ws := make([]*client.Writer, len(streams))
	base := make([]uint64, len(streams))
	for i, r := range streams {
		base[i] = r.os.Count()
		// FlushEvery < 0: batches ship only when full or on Close, so batch
		// boundaries, and the exact counts built on them, repeat.
		w, err := r.os.Writer(context.Background(), client.WriterOptions{BatchChunks: e.cfg.sz.batchChunks, FlushEvery: -1})
		if err != nil {
			for _, open := range ws[:i] {
				open.Close()
			}
			return err
		}
		ws[i] = w
	}
	var err error
	written := 0
loop:
	for ; n < 0 || written < n; written++ {
		if stop != nil && written%e.cfg.sz.batchChunks == 0 {
			select {
			case <-stop:
				break loop
			default:
			}
		}
		for i, r := range streams {
			_, sp := e.tr.begin(context.Background(), "client.append", "", "Writer")
			err = ws[i].AppendChunk(r.points(base[i] + uint64(written)))
			e.tr.end(sp)
			if err != nil {
				break loop
			}
		}
	}
	for _, w := range ws {
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for i, r := range streams {
		now := r.os.Count()
		r.acked.Store(now)
		e.records.Add(int64(now-base[i]) * perChunk)
		e.ops.attempted.Add(int64(written))
		if now-base[i] != uint64(written) {
			e.ops.fail(fmt.Errorf("stream %s: %d of %d chunks acknowledged", r.uuid, now-base[i], written))
		}
	}
	if err != nil {
		e.ops.fail(err)
	}
	return err
}

// runIngest is the ingest workload's closed loop: each producer appends to
// its streams through Writers as fast as the system acknowledges. It
// returns the records acknowledged and the time until the last ack.
func (e *env) runIngest(dur time.Duration) (int64, time.Duration) {
	before := e.records.Load()
	stop := make(chan struct{})
	start := time.Now()
	timer := time.AfterFunc(dur, func() { close(stop) })
	defer timer.Stop()
	var wg sync.WaitGroup
	for p := range e.ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.writeChunks(e.ingest[p], -1, stop) // failures are counted in e.ops
		}()
	}
	wg.Wait()
	return e.records.Load() - before, time.Since(start)
}

// runQuery is the query workload's closed loop: each client issues its
// query mix back to back. It returns per-query latencies (ns) and the
// phase's length.
func (e *env) runQuery(dur time.Duration) ([]float64, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	lats := make([][]float64, producers)
	var wg sync.WaitGroup
	for c := 0; c < producers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(e.cfg.seed, uint64(100+c)))
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				err := e.queryOnce(rng, c, i)
				e.ops.done(err)
				if err == nil {
					lats[c] = append(lats[c], float64(time.Since(t0)))
				}
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, time.Since(start)
}

// queryOnce issues query i of client c's mix over random ranges: half are
// single-stream StatRange by the owner, three in ten are multi-stream
// windowed Mean/Var plans spanning both groups, two in ten are StatRange
// by the client's consumer through its grant.
func (e *env) queryOnce(rng *rand.Rand, c, i int) error {
	sz := e.cfg.sz
	n := uint64(sz.queryChunks)
	ctx := context.Background()
	switch i % 10 {
	case 1, 5:
		k := rng.IntN(len(e.cons[c]))
		a, b := randRange(rng, n, 1)
		return e.statRange(ctx, e.conns[c], e.cons[c][k], e.granted[c][k], a, b)
	case 3, 7, 9:
		var anchors []int
		for k := 0; k+sz.planStreams <= len(e.query); k++ {
			if e.query[k].conn == c {
				anchors = append(anchors, k)
			}
		}
		k := anchors[rng.IntN(len(anchors))]
		a, b := randRange(rng, n, sz.planWindow)
		return e.plan(ctx, e.conns[c], e.query[k:k+sz.planStreams], a, b, sz.planWindow)
	default:
		var mine []*refStream
		for _, r := range e.query {
			if r.conn == c {
				mine = append(mine, r)
			}
		}
		r := mine[rng.IntN(len(mine))]
		a, b := randRange(rng, n, 1)
		return e.statRange(ctx, e.conns[c], r.os, r, a, b)
	}
}

// randRange draws a non-empty chunk range [a, b) inside [0, n), aligned
// to w.
func randRange(rng *rand.Rand, n, w uint64) (uint64, uint64) {
	slots := n / w
	a := rng.Uint64N(slots)
	b := a + 1 + rng.Uint64N(slots-a)
	return a * w, b * w
}

type statRanger interface {
	StatRange(ctx context.Context, ts, te int64) (client.StatResult, error)
}

// statRange runs one single-stream StatRange and checks it.
func (e *env) statRange(ctx context.Context, conn *clientConn, q statRanger, r *refStream, a, b uint64) error {
	ctx, sp := e.tr.begin(ctx, "client.query", "", "StatRange")
	res, err := q.StatRange(ctx, chunkTS(a), chunkTS(b))
	e.endQuery(sp, conn)
	if err != nil {
		return err
	}
	return checkResult(res.Result, refOf([]*refStream{r}, a, b))
}

// plan runs one multi-stream windowed Mean/Var plan over [a, b) and checks
// every window.
func (e *env) plan(ctx context.Context, conn *clientConn, members []*refStream, a, b, w uint64) error {
	others := make([]client.Queryable, 0, len(members)-1)
	for _, m := range members[1:] {
		others = append(others, m.os)
	}
	ctx, sp := e.tr.begin(ctx, "client.query", "", "Plan")
	aggs, err := members[0].os.Query().Streams(others...).Range(chunkTS(a), chunkTS(b)).
		Window(w).Stats(client.Mean, client.Var).Aggs(ctx)
	e.endQuery(sp, conn)
	if err != nil {
		return err
	}
	if uint64(len(aggs)) != (b-a)/w {
		return fmt.Errorf("plan [%d,%d)/%d: %d windows, want %d", a, b, w, len(aggs), (b-a)/w)
	}
	for i, agg := range aggs {
		lo := a + uint64(i)*w
		if agg.FromChunk != lo || agg.ToChunk != lo+w || agg.StreamCount != len(members) {
			return fmt.Errorf("plan window %d covers [%d,%d) of %d streams", i, agg.FromChunk, agg.ToChunk, agg.StreamCount)
		}
		if err := checkAgg(agg, refOf(members, lo, lo+w)); err != nil {
			return err
		}
	}
	return nil
}

// endQuery closes a query span, noting when the connection last received
// bytes: a streamed response's wait ends there.
func (e *env) endQuery(sp span, conn *clientConn) {
	if e.tr.on {
		sp.Aux = conn.conn.lastRead.Load()
		e.tr.end(sp)
	}
}
