// Command perfbench is the repository's benchmark: it boots a replicated,
// durable TimeCrypt deployment in-process (a router over TCP in front of
// two 3-member quorum replication groups, every member on its own
// fsync-always WAL), drives one workload against it from one process, and
// checks every answer against a plaintext reference computed from the
// generated points. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench --workload ingest|query|live --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, from an untraced run; with --trace 1
// they are the per-layer ones, from a traced run made after an untraced
// run of the same seed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/kv/durable"
	"repro/internal/wire"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string
	sz       sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "ingest, query or live")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	dir := flag.String("dir", filepath.Join(".bench_build", "data"), "directory for the members' data")
	flag.Parse()
	switch *wl {
	case "ingest", "query", "live":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	cfg := &config{workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: *dir, sz: defaultSizes()}
	printHeader(cfg)
	res, report, err := run(cfg)
	fmt.Print(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// phase is what the measured part of a run (a workload's own loop, plus
// the live mix for the metrics that loop does not produce) measured.
type phase struct {
	ingestRate             float64 // records/s
	queryRate              float64 // queries/s
	ack, query, push, late []float64
	deltas, resyncs        int
	// mixStart is when the live mix started on ingest and query (tracer
	// time); spans before it belong to the workload's own loop.
	mixStart int64
}

// measure runs the workload's measured phase for dur. live runs the live
// mix for all of it. ingest and query run their own loop for the first
// half, then the live mix for the second, over the same deployment, for
// the latency and freshness metrics their own loop does not exercise.
func (e *env) measure(dur time.Duration) (phase, error) {
	p := phase{mixStart: math.MaxInt64}
	if e.cfg.workload == "live" {
		lr := e.runLive(dur)
		p.fromLive(lr, true, true)
		return p, nil
	}
	own := dur / 2
	switch e.cfg.workload {
	case "ingest":
		recs, el := e.runIngest(own)
		p.ingestRate = float64(recs) / el.Seconds()
	case "query":
		lat, el := e.runQuery(own)
		p.queryRate = float64(len(lat)) / el.Seconds()
		p.query = lat
	}
	// The live mix starts once every follower has caught up, so it does not
	// measure the main loop's replication backlog; after ingest this is
	// also the gate that every follower reaches its leader's watermark.
	if !e.d.converged(30 * time.Second) {
		e.ops.fail(fmt.Errorf("followers behind their leader by %d records after the %s loop", e.d.maxLag(), e.cfg.workload))
	}
	syscall.Sync() // as before the main loop: write back its dirty pages first
	// Hand the second connection over to the live mix's subscriptions.
	e.conns[1].Close()
	e.conns = e.conns[:1]
	if err := e.subscribe(context.Background()); err != nil {
		return p, err
	}
	p.mixStart = e.tr.now()
	lr := e.runLive(dur - own)
	p.fromLive(lr, e.cfg.workload != "ingest", e.cfg.workload != "query")
	return p, nil
}

func (p *phase) fromLive(lr liveResult, ingest, queries bool) {
	if ingest {
		p.ingestRate = float64(lr.records) / lr.elapsed.Seconds()
	}
	if queries {
		p.queryRate = float64(lr.queries) / lr.elapsed.Seconds()
		p.query = lr.query
	}
	p.ack, p.push, p.late = lr.ack, lr.push, lr.late
	p.deltas, p.resyncs = lr.deltas, lr.resyncs
}

// check is the end-of-run correctness gate: every stream holds exactly
// the chunks it acknowledged, every follower reached its leader's
// watermark, and every member fsynced.
func (e *env) check() {
	ctx := context.Background()
	var all []*refStream
	for _, set := range e.ingest {
		all = append(all, set...)
	}
	all = append(append(append(all, e.query...), e.count...), e.live...)
	for _, r := range all {
		resp, err := e.conns[0].RoundTrip(ctx, &wire.StreamInfo{UUID: r.uuid})
		if err == nil {
			if info, ok := resp.(*wire.StreamInfoResp); !ok {
				err = fmt.Errorf("stream info %s: %v", r.uuid, resp)
			} else if info.Count != r.acked.Load() {
				err = fmt.Errorf("stream %s holds %d chunks, %d acknowledged", r.uuid, info.Count, r.acked.Load())
			}
		}
		e.ops.done(err)
	}
	if !e.d.converged(10 * time.Second) {
		e.ops.fail(fmt.Errorf("followers behind their leader by %d records", e.d.maxLag()))
	}
	for _, m := range e.d.members() {
		if m.ds.Stats().Fsyncs == 0 {
			e.ops.fail(fmt.Errorf("member %s never fsynced", m.name))
		}
	}
}

func (d *deployment) durableTotals() (records, fsyncs uint64) {
	for _, m := range d.members() {
		s := m.ds.Stats()
		records += s.Records
		fsyncs += s.Fsyncs
	}
	return records, fsyncs
}

// outcome is one deployment's run: what it measured and the state it left.
type outcome struct {
	setup                  []float64 // seconds per set-up
	ex                     exact
	p                      phase
	diskPerRec, heapPerRec float64
	attempted, failed      int64
	errs                   []error
	spans                  []span // traced runs only
	// Over the measured phase: records and frames the followers received,
	// WAL records and fsyncs of all members, and the largest replication
	// lag seen (traced runs only).
	records, frames    int64
	walRecords, fsyncs uint64
	lagMax             uint64
	live               []*refStream // for the seal replay
}

// runOnce sets up setups times (keeping the last deployment), runs the
// count pass and the measured phase, checks the result and tears down.
func runOnce(cfg *config, tr *tracer, setups int) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	var e *env
	syscall.Sync()
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		e, err = setup(ctx, cfg, tr, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if i < setups-1 {
			e.close()
		}
	}
	defer e.close()
	tr.reset()
	var err error
	if o.ex, err = e.countPass(); err != nil {
		return nil, err
	}
	// Write back every dirty page on the machine (earlier runs' data, the
	// build) before measuring, so the members' fsyncs do not pay for it.
	syscall.Sync()
	fe0 := followerFrames(e.d)
	r0, f0 := e.d.durableTotals()
	stopLag := func() uint64 { return 0 }
	if tr.on {
		stopLag = e.d.watchLag()
	}
	o.p, err = e.measure(cfg.seconds)
	o.lagMax = stopLag()
	if err != nil {
		return nil, err
	}
	o.spans = tr.snapshot()
	r1, f1 := e.d.durableTotals()
	fe1 := followerFrames(e.d)
	o.walRecords, o.fsyncs = r1-r0, f1-f0
	o.records, o.frames = fe1[0]-fe0[0], fe1[1]-fe0[1]
	e.check()
	o.diskPerRec = float64(e.d.diskBytes()) / float64(e.records.Load())
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	o.heapPerRec = float64(mem.HeapAlloc) / float64(e.records.Load())
	o.attempted, o.failed = e.ops.attempted.Load(), e.ops.failed.Load()
	o.errs = e.ops.errs
	o.live = e.live
	return o, nil
}

func followerFrames(d *deployment) [2]int64 {
	var t [2]int64
	for _, g := range d.groups {
		for _, m := range g.members[1:] {
			t[0] += m.fe.records.Load()
			t[1] += m.fe.frames.Load()
		}
	}
	return t
}

// primary is the end-to-end metric the tracing overhead is measured on:
// the workload's capacity, or live's ack median.
func primary(workload string, p phase) (value float64, higherBetter bool) {
	switch workload {
	case "ingest":
		return p.ingestRate, true
	case "query":
		return p.queryRate, true
	}
	return pct(p.ack, 50), false
}

func run(cfg *config) (result, string, error) {
	baseline := runtime.NumGoroutine()
	var b strings.Builder
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, "", err
	}
	defer os.RemoveAll(cfg.dir)
	if !cfg.trace {
		o, err := runOnce(cfg, newTracer(false), cfg.sz.setups)
		if err != nil {
			return result{}, "", err
		}
		reportRun(&b, "untraced", o)
		return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: endToEnd(o)}, b.String(), nil
	}
	plain, err := runOnce(cfg, newTracer(false), 1)
	if err != nil {
		return result{}, "", err
	}
	reportRun(&b, "untraced", plain)
	tr := newTracer(true)
	traced, err := runOnce(cfg, tr, 1)
	if err != nil {
		return result{}, "", err
	}
	reportRun(&b, "traced", traced)
	sealNS, sealAlloc, err := sealReplay(traced.live, cfg.sz.sealReplay, baseline)
	if err != nil {
		return result{}, "", err
	}
	spanFile := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeSpans(spanFile); err != nil {
		return result{}, "", err
	}
	fmt.Fprintf(&b, "spans: %d written to %s\n", len(traced.spans), spanFile)
	u, higher := primary(cfg.workload, plain.p)
	t, _ := primary(cfg.workload, traced.p)
	overhead := (t - u) / u
	if higher {
		overhead = (u - t) / u
	}
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	m := perLayer(traced, sealNS, sealAlloc, overhead, float64(failed)/float64(attempted))
	// The tails of the end-to-end latencies, from the untraced run. They
	// carry no bound: on a shared disk a single fsync stall moves them by
	// more than any bound the benchmark could hold them to (README.md).
	m["ack_p99_ms"] = metric{ms(pct(plain.p.ack, 99)), "ms"}
	m["query_p99_ms"] = metric{ms(pct(plain.p.query, 99)), "ms"}
	m["push_p99_ms"] = metric{ms(pct(plain.p.push, 99)), "ms"}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, b.String(), nil
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func endToEnd(o *outcome) map[string]metric {
	p := o.p
	return map[string]metric{
		"setup_s":               {median(o.setup), "s"},
		"ingest_rec_per_s":      {p.ingestRate, "1/s"},
		"ack_p50_ms":            {ms(pct(p.ack, 50)), "ms"},
		"query_per_s":           {p.queryRate, "1/s"},
		"query_p50_ms":          {ms(pct(p.query, 50)), "ms"},
		"push_p50_ms":           {ms(pct(p.push, 50)), "ms"},
		"disk_bytes_per_record": {o.diskPerRec, "bytes"},
		"heap_bytes_per_record": {o.heapPerRec, "bytes"},
	}
}

// perLayer computes the per-layer metrics of a traced run. A span metric
// is taken from the workload's own loop (with the count pass) when that
// loop exercised the layer, and from the live mix otherwise.
func perLayer(o *outcome, sealNS, sealAlloc, overhead, failedShare float64) map[string]metric {
	var own, mix []span
	for _, x := range o.spans {
		if x.Start < o.p.mixStart {
			own = append(own, x)
		} else {
			mix = append(mix, x)
		}
	}
	durs := func(keep func(span) bool) []float64 {
		if d := durations(own, keep); len(d) > 0 {
			return d
		}
		return durations(mix, keep)
	}
	selfs := func(keep func(span) bool, streamEnd func(span) int64) []float64 {
		if d := selfTimes(own, keep, streamEnd); len(d) > 0 {
			return d
		}
		return selfTimes(mix, keep, streamEnd)
	}
	gap := wireGap(own)
	if gap == 0 {
		gap = wireGap(mix)
	}
	layer := func(name string, kinds ...string) func(span) bool {
		return func(x span) bool {
			if x.Layer != name {
				return false
			}
			for _, k := range kinds {
				if x.Kind == k {
					return true
				}
			}
			return len(kinds) == 0
		}
	}
	isLeader := func(x span) bool { return strings.HasSuffix(x.Node, "/m0") }
	write := layer("replica.member", "InsertChunk", "Batch/InsertChunk")
	apply := layer("replica.member", "ReplAppend")
	rtt := func(kind string) float64 { return us(median(durs(layer("client.rtt", kind)))) }
	queryEnd := func(p span) int64 { return p.Aux }
	resync := 0.0
	if o.p.deltas > 0 {
		resync = float64(o.p.resyncs) / float64(o.p.deltas)
	}
	perFrame, perFsync := 0.0, 0.0
	if o.frames > 0 {
		perFrame = float64(o.records) / float64(o.frames)
	}
	if o.fsyncs > 0 {
		perFsync = float64(o.walRecords) / float64(o.fsyncs)
	}
	return map[string]metric{
		"workload.late_p99_ms":          {ms(pct(o.p.late, 99)), "ms"},
		"client.append_us":              {us(median(selfs(layer("client.append"), nil))), "us"},
		"client.query_self_us":          {us(median(selfs(layer("client.query"), queryEnd))), "us"},
		"client.rtt_us.InsertChunk":     {rtt("InsertChunk"), "us"},
		"client.rtt_us.Batch":           {rtt("Batch/InsertChunk"), "us"},
		"client.rtt_us.StatRange":       {rtt("StatRange"), "us"},
		"chunk.seal_us":                 {us(sealNS), "us"},
		"chunk.seal_alloc_bytes":        {sealAlloc, "bytes"},
		"wire.gap_us":                   {us(gap), "us"},
		"wire.bytes_per_chunk":          {o.ex.BytesPerChunk, "bytes"},
		"wire.bytes_per_query":          {o.ex.BytesPerQuery, "bytes"},
		"cluster.router_self_us":        {us(median(selfs(layer("cluster.router"), nil))), "us"},
		"cluster.shard_calls_per_query": {o.ex.ShardCallsPerQuery, "count"},
		"replica.leader_us":             {us(median(durs(func(x span) bool { return write(x) && isLeader(x) }))), "us"},
		"replica.follower_apply_us":     {us(median(durs(func(x span) bool { return apply(x) && !isLeader(x) }))), "us"},
		"replica.records_per_frame":     {perFrame, "count"},
		"replica.lag_records_max":       {float64(o.lagMax), "count"},
		"index.node_writes_per_chunk":   {o.ex.IndexWritesPerChunk, "count"},
		"index.node_reads_per_query":    {o.ex.IndexReadsPerQuery, "count"},
		"durable.commit_us":             {us(median(durs(layer("durable.commit")))), "us"},
		"durable.records_per_fsync":     {perFsync, "count"},
		"kv.ops_per_chunk":              {o.ex.OpsPerChunk, "count"},
		"sub.deltas":                    {float64(o.p.deltas), "count"},
		"sub.resync_share":              {resync, "share"},
		"trace.overhead_share":          {overhead, "share"},
		"failed_op_share":               {failedShare, "share"},
	}
}

// wireGap is the mean client round trip minus the mean time the router's
// front end spent handling the request, over the unary request kinds a
// client sends and the router receives only from clients (ns).
func wireGap(s []span) float64 {
	var gap, n float64
	for _, k := range []string{"InsertChunk", "Batch/InsertChunk", "StatRange"} {
		c := durations(s, func(x span) bool { return x.Layer == "client.rtt" && x.Kind == k })
		r := durations(s, func(x span) bool { return x.Layer == "cluster.router" && x.Kind == k })
		if len(c) == 0 || len(r) == 0 {
			continue
		}
		gap += (mean(c) - mean(r)) * float64(len(c))
		n += float64(len(c))
	}
	if n == 0 {
		return 0
	}
	return gap / n
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 { return pct(v, 50) }

// pct is the nearest-rank p-th percentile (0 for no samples).
func pct(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(float64(len(s))*p/100+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailPct names the highest whole percentile that leaves at least ten
// samples beyond it.
func tailPct(n int) int {
	for p := 99; p > 50; p-- {
		if float64(n)*(100-float64(p))/100 >= 10 {
			return p
		}
	}
	return 50
}

func reportRun(b *strings.Builder, label string, o *outcome) {
	p := o.p
	fmt.Fprintf(b, "[%s] setup_s per set-up: %v\n", label, o.setup)
	for _, t := range []struct {
		name string
		v    []float64
	}{{"ack", p.ack}, {"query", p.query}, {"push", p.push}, {"late", p.late}} {
		tp := tailPct(len(t.v))
		fmt.Fprintf(b, "[%s] %-5s n=%d p50=%.3fms p%d=%.3fms (p99=%.3fms)\n", label, t.name, len(t.v),
			ms(pct(t.v, 50)), tp, ms(pct(t.v, float64(tp))), ms(pct(t.v, 99)))
	}
	fmt.Fprintf(b, "[%s] ingest %.1f rec/s, queries %.1f/s, deltas %d (%d resynced)\n", label, p.ingestRate, p.queryRate, p.deltas, p.resyncs)
	fmt.Fprintf(b, "[%s] exact counts: %+v\n", label, o.ex)
	fmt.Fprintf(b, "[%s] attempted %d, failed %d\n", label, o.attempted, o.failed)
	for _, err := range o.errs {
		fmt.Fprintf(b, "[%s] failure: %v\n", label, err)
	}
}

// printHeader records the environment the numbers were measured in.
func printHeader(cfg *config) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				cpu = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	fmt.Printf("env: commit=%s cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", commit, cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("env: workload=%s seed=%d seconds=%s trace=%v fsync=%s data-fs=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, durable.SyncAlways, fsType(cfg.dir))
	fmt.Println("env: disk latency is that of this machine's filesystem under the checkout, not of a dedicated device")
}

func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
