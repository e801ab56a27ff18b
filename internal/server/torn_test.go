package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/kv/durable"
	"repro/internal/wire"
)

var errCut = errors.New("test store: write cut")

// cutStore counts the writes (Put, Delete and Batch calls) it passes to a
// MemStore and, once cut, fails every write past its budget without
// applying any of it — a server dying mid-insert. A Batch is one write
// because durable.Store logs it as one WAL record: it lands whole or not
// at all.
type cutStore struct {
	*kv.MemStore
	mu     sync.Mutex
	writes int
	budget int // writes still allowed; < 0 means no cut
}

func newCutStore() *cutStore { return &cutStore{MemStore: kv.NewMemStore(), budget: -1} }

// cut lets the next k writes through and fails the rest; k < 0 heals.
func (s *cutStore) cut(k int) {
	s.mu.Lock()
	s.budget = k
	s.mu.Unlock()
}

func (s *cutStore) write() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget == 0 {
		return errCut
	}
	if s.budget > 0 {
		s.budget--
	}
	s.writes++
	return nil
}

func (s *cutStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

func (s *cutStore) Put(key string, value []byte) error {
	if err := s.write(); err != nil {
		return err
	}
	return s.MemStore.Put(key, value)
}

func (s *cutStore) Delete(key string) error {
	if err := s.write(); err != nil {
		return err
	}
	return s.MemStore.Delete(key)
}

func (s *cutStore) Batch(ops []kv.Op) error {
	if err := s.write(); err != nil {
		return err
	}
	return s.MemStore.Batch(ops)
}

// insertRun ingests blobs with one InsertChunk each, or with one
// InsertChunkBatch, returning the first error.
func insertRun(e *Engine, uuid string, blobs [][]byte, batch bool) error {
	if batch {
		for _, err := range e.InsertChunkBatch(uuid, blobs) {
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, blob := range blobs {
		if err := e.InsertChunk(uuid, blob); err != nil {
			return err
		}
	}
	return nil
}

// indexDump returns every "i/" key of a store.
func indexDump(t *testing.T, store kv.Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	for k, v := range storeDump(t, store) {
		if strings.HasPrefix(k, "i/") {
			out[k] = v
		}
	}
	return out
}

// TestTornInsertRetryIsExact cuts one insert after each of its store
// writes in turn, restarts the engine over what the store kept and retries
// the unacknowledged chunks. Every index key must end byte-identical to a
// clean ingest and the stream must decrypt to the reference sum: an
// insert whose index writes are separate store writes leaves ancestors
// that already hold the chunk's digest, and the retry adds it twice.
func TestTornInsertRetryIsExact(t *testing.T) {
	const prefix = 10 // chunks acknowledged before the torn insert
	for _, tc := range []struct {
		name  string
		n     uint64
		batch bool
	}{{"InsertChunk", 1, false}, {"InsertChunkBatch", 64, true}} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			blobs := sealBlobs(t, h, prefix+tc.n)
			total := uint64(len(blobs))
			var wantSum int64
			for i := uint64(0); i < total; i++ {
				wantSum += int64(i + 1) // sealBlobs' point values
			}

			clean := kv.NewMemStore()
			ce, err := New(clean, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ce.CreateStream("s", h.cfg); err != nil {
				t.Fatal(err)
			}
			if err := insertRun(ce, "s", blobs[:prefix], false); err != nil {
				t.Fatal(err)
			}
			if err := insertRun(ce, "s", blobs[prefix:], tc.batch); err != nil {
				t.Fatal(err)
			}
			want := indexDump(t, clean)

			for k := 0; ; k++ {
				if k > 200 {
					t.Fatal("insert never completed")
				}
				store := newCutStore()
				e1, err := New(store, Config{})
				if err != nil {
					t.Fatal(err)
				}
				if err := e1.CreateStream("s", h.cfg); err != nil {
					t.Fatal(err)
				}
				if err := insertRun(e1, "s", blobs[:prefix], false); err != nil {
					t.Fatal(err)
				}
				store.cut(k)
				acked := insertRun(e1, "s", blobs[prefix:], tc.batch) == nil
				store.cut(-1)

				e2, err := New(store, Config{})
				if err != nil {
					t.Fatalf("cut after %d writes: restart: %v", k, err)
				}
				if !acked {
					if err := insertRun(e2, "s", blobs[prefix:], tc.batch); err != nil {
						t.Fatalf("cut after %d writes: retry: %v", k, err)
					}
				}
				got := indexDump(t, store)
				diff := 0
				for key, v := range want {
					if got[key] != v {
						diff++
					}
				}
				if diff > 0 || len(got) != len(want) {
					t.Errorf("cut after %d writes: %d of %d index keys differ from a clean ingest (%d keys present)",
						k, diff, len(want), len(got))
				}
				from, to, windows, err := e2.StatRange(context.Background(), []string{"s"}, 0, int64(total)*100, 0)
				if err != nil {
					t.Fatalf("cut after %d writes: %v", k, err)
				}
				vec, err := core.NewEncryptor(h.tree.NewWalker()).DecryptRange(from, to, windows[0], nil)
				if err != nil {
					t.Fatal(err)
				}
				if r, _ := h.spec.Interpret(vec); r.Sum != wantSum || r.Count != total {
					t.Errorf("cut after %d writes: sum=%d count=%d, want %d, %d", k, r.Sum, r.Count, wantSum, total)
				}
				if acked {
					break
				}
			}
		})
	}
}

// TestInsertIsOneWALRecord is the mechanism fence: over durable.Store with
// SyncAlways, one InsertChunk and one 64-chunk InsertChunkBatch each add
// exactly one WAL record, also when the insert collects staged records.
func TestInsertIsOneWALRecord(t *testing.T) {
	ds, err := durable.Open(t.TempDir(), durable.Options{Sync: durable.SyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	e, err := New(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t)
	if err := e.CreateStream("s", h.cfg); err != nil {
		t.Fatal(err)
	}
	blobs := sealBlobs(t, h, 2+64+64)
	stage := func(chunks ...uint64) {
		for _, c := range chunks {
			for seq := uint64(0); seq < 2; seq++ {
				if err := e.StageRecord("s", c, seq, []byte{byte(seq)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	oneRecord := func(name string, insert func() error) {
		t.Helper()
		before := ds.Stats().Records
		if err := insert(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := ds.Stats().Records - before; got != 1 {
			t.Errorf("%s wrote %d WAL records, want 1", name, got)
		}
	}
	oneRecord("InsertChunk", func() error { return e.InsertChunk("s", blobs[0]) })
	stage(1)
	oneRecord("InsertChunk with staged GC", func() error { return e.InsertChunk("s", blobs[1]) })
	oneRecord("InsertChunkBatch", func() error { return insertRun(e, "s", blobs[2:66], true) })
	stage(66, 100, 129)
	oneRecord("InsertChunkBatch with staged GC", func() error { return insertRun(e, "s", blobs[66:], true) })
	leaked := 0
	ds.Scan("r/", func(string, []byte) bool { leaked++; return true })
	if leaked != 0 {
		t.Errorf("%d staged records survived their chunks", leaked)
	}
}

// TestFailedInsertLeavesMemoryUntouched: an insert whose store batch fails
// must not cache nodes it never wrote, advance the tree count, publish to
// live views or forget the chunk's staged records — so the retry on the
// same engine commits the chunk exactly once and still collects them.
func TestFailedInsertLeavesMemoryUntouched(t *testing.T) {
	h := newHarness(t)
	store := newCutStore()
	e, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateStream("s", h.cfg); err != nil {
		t.Fatal(err)
	}
	blobs := sealBlobs(t, h, 7)
	if err := insertRun(e, "s", blobs[:5], false); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 3; seq++ {
		if err := e.StageRecord("s", 5, seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := e.Subscribe(context.Background(), &wire.Subscribe{UUIDs: []string{"s"}, WindowChunks: 1, FromLatest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	s, err := e.lookup("s")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, entries := s.tree.CacheStats()

	store.cut(0)
	if err := e.InsertChunk("s", blobs[5]); !errors.Is(err, errCut) {
		t.Fatalf("insert over a cut store: %v", err)
	}
	if errs := e.InsertChunkBatch("s", blobs[5:]); !errors.Is(errs[0], errCut) || !errors.Is(errs[1], errCut) {
		t.Fatalf("batch over a cut store: %v", errs)
	}
	store.cut(-1)
	if n := s.tree.Count(); n != 5 {
		t.Errorf("failed inserts moved the tree count to %d, want 5", n)
	}
	if _, _, _, after := s.tree.CacheStats(); after != entries {
		t.Errorf("failed inserts changed the index cache from %d to %d entries", entries, after)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	ev, err := sub.Recv(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("failed inserts reached the subscription: %+v, %v", ev, err)
	}

	if err := insertRun(e, "s", blobs[5:], true); err != nil {
		t.Fatalf("retry: %v", err)
	}
	for i, ev := range collect(t, sub, 2) {
		if ev.Seq != uint64(5+i) || ev.Resync {
			t.Errorf("event %d after the retry: seq %d resync %v, want live seq %d", i, ev.Seq, ev.Resync, 5+i)
		}
	}
	staged := 0
	store.Scan("r/", func(string, []byte) bool { staged++; return true })
	if staged != 0 {
		t.Errorf("%d staged records survived the retried insert of their chunk", staged)
	}
	ref := newHarness(t)
	ref.createStream(t, "s")
	if err := insertRun(ref.engine, "s", blobs, false); err != nil {
		t.Fatal(err)
	}
	got, want := indexDump(t, store), indexDump(t, ref.store)
	for key, v := range want {
		if got[key] != v {
			t.Errorf("index key %q differs from a clean ingest", key)
		}
	}
}

// TestRangeMutationsBatchPerStep: DeleteRange and Rollup write one store
// batch per 256-chunk step, and Rollup's prune one per 256 index nodes.
func TestRangeMutationsBatchPerStep(t *testing.T) {
	const n = 600
	h := newHarness(t)
	store := newCutStore()
	e, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateStream("s", h.cfg); err != nil {
		t.Fatal(err)
	}
	if err := insertRun(e, "s", sealBlobs(t, h, n), true); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	writes := func(name string, want int, op func() error) {
		t.Helper()
		before := store.count()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := store.count() - before; got != want {
			t.Errorf("%s made %d store writes, want %d", name, got, want)
		}
	}
	// 600 chunks: steps of 256, 256 and 88.
	writes("DeleteRange", 3, func() error { return e.DeleteRange(ctx, "s", 0, n*100) })
	// Factor 64 at fanout 8 prunes levels 0 and 1: 600 + 75 nodes, three
	// batches, after three batches of chunk deletes.
	writes("Rollup", 6, func() error { return e.Rollup(ctx, "s", 64, 0, n*100) })
	if _, _, _, err := e.StatRange(ctx, []string{"s"}, 0, 512*100, 64); err != nil {
		t.Errorf("rolled-up stream lost its 64-chunk windows: %v", err)
	}
}
