package main

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func tinyConfig(t *testing.T, workload string) *config {
	return &config{
		workload: workload, seed: 7, seconds: time.Second, dir: t.TempDir(),
		sz: sizes{
			producerStreams: 2, batchChunks: 8,
			queryStreams: 4, queryChunks: 64, planStreams: 2, planWindow: 8, cacheBytes: 4 << 10,
			liveStreams: 4, livePreload: 8, liveRate: 100, liveQueryRate: 50,
			countChunks: 32, countQueries: 8, sealReplay: 64, setups: 1,
		},
	}
}

// settle makes the test wait, when it ends, for the goroutines its
// deployments started to exit, so that the next test's allocation counts
// see a quiet process (and a leaked goroutine fails the test).
func settle(t *testing.T) {
	n := runtime.NumGoroutine()
	t.Cleanup(func() {
		if !quiesce(n) {
			t.Errorf("%d goroutines still running, %d before the test", runtime.NumGoroutine(), n)
		}
	})
}

// TestWorkloadsSmoke runs every workload at a tiny size, correctness gate
// included.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range []string{"ingest", "query", "live"} {
		t.Run(wl, func(t *testing.T) {
			settle(t)
			o, err := runOnce(tinyConfig(t, wl), newTracer(false), 1)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", o.attempted, o.failed, o.errs)
			}
			if o.p.deltas == 0 || len(o.p.ack) == 0 || len(o.p.query) == 0 {
				t.Fatalf("live mix measured nothing: %d deltas, %d acks, %d queries", o.p.deltas, len(o.p.ack), len(o.p.query))
			}
			if o.p.ingestRate <= 0 || o.p.queryRate <= 0 {
				t.Fatalf("rates: ingest %g, query %g", o.p.ingestRate, o.p.queryRate)
			}
		})
	}
}

// TestTracingChangesNoCounts checks that the traced wrappers change no
// behaviour: the exact counts of the count pass are the same with spans
// on and off, and sealing allocates the same bytes every time.
func TestTracingChangesNoCounts(t *testing.T) {
	settle(t)
	cfg := tinyConfig(t, "live")
	baseline := runtime.NumGoroutine()
	plain, err := runOnce(cfg, newTracer(false), 1)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runOnce(cfg, newTracer(true), 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ex != traced.ex {
		t.Fatalf("exact counts differ:\nuntraced %+v\ntraced   %+v", plain.ex, traced.ex)
	}
	if plain.ex.OpsPerChunk == 0 || plain.ex.BytesPerChunk == 0 || plain.ex.IndexWritesPerChunk == 0 {
		t.Fatalf("count pass counted nothing: %+v", plain.ex)
	}
	if len(traced.spans) == 0 || len(plain.spans) != 0 {
		t.Fatalf("spans: %d traced, %d untraced", len(traced.spans), len(plain.spans))
	}
	if raceEnabled {
		return
	}
	_, a1, err := sealReplay(traced.live, cfg.sz.sealReplay, baseline)
	if err != nil {
		t.Fatal(err)
	}
	_, a2, err := sealReplay(traced.live, cfg.sz.sealReplay, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("seal allocations differ: %g vs %g bytes per chunk", a1, a2)
	}
}

// TestFrameScan checks that flow-control frames (correlation ID 0) are left
// out of the byte count however the writes split the frames.
func TestFrameScan(t *testing.T) {
	var call, credit bytes.Buffer
	if err := wire.WriteRequest(&call, 300, 0, &wire.StreamInfo{UUID: "s"}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteRequest(&credit, 0, 0, &wire.StreamCredit{ID: 5}); err != nil {
		t.Fatal(err)
	}
	stream := append(append(append([]byte{}, call.Bytes()...), credit.Bytes()...), call.Bytes()...)
	for step := 1; step <= len(stream); step++ {
		var f frameScan
		got := 0
		for i := 0; i < len(stream); i += step {
			got += f.feed(stream[i:min(i+step, len(stream))])
		}
		if want := 2 * call.Len(); got != want {
			t.Fatalf("writes of %d bytes: counted %d, want %d", step, got, want)
		}
	}
}
