package chunk_test

import (
	"bytes"
	"compress/zlib"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// freshZlib compresses data the way Compress did before it reused writers:
// a new zlib.NewWriter per call. Compress must match it byte for byte.
func freshZlib(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zlib.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// devopsPayload is the serialized points of DevOps chunk idx: six CPU
// samples, the payload the client seals in the §6.3 experiment.
func devopsPayload(seed, idx uint64) []byte {
	return chunk.MarshalPoints(workload.NewDevOps(seed).Chunk(idx, 0, 60_000))
}

// repetitivePayload is TestZlibShrinksRepetitiveData's 500-point series.
func repetitivePayload() []byte {
	pts := make([]chunk.Point, 500)
	for i := range pts {
		pts[i] = chunk.Point{TS: int64(i * 20), Val: 72}
	}
	return chunk.MarshalPoints(pts)
}

// mixedSource is 4 KiB of DevOps payloads interleaved with random bytes,
// so its prefixes exercise literals, matches and stored blocks.
func mixedSource() []byte {
	r := rand.New(rand.NewPCG(7, 7))
	var src []byte
	for idx := uint64(0); len(src) < 4096; idx++ {
		src = append(src, devopsPayload(3, idx)...)
		for range 16 {
			src = append(src, byte(r.Uint32()))
		}
	}
	return src[:4096]
}

func checkIdentity(t *testing.T, data []byte) {
	t.Helper()
	got, err := chunk.Compress(chunk.CompressionZlib, data)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshZlib(t, data); !bytes.Equal(got, want) {
		t.Fatalf("%d-byte payload: Compress differs from a fresh zlib writer:\n got %x\nwant %x", len(data), got, want)
	}
	back, err := chunk.Decompress(chunk.CompressionZlib, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("%d-byte payload: round trip differs", len(data))
	}
}

func TestCompressMatchesFreshWriter(t *testing.T) {
	step, chunks := 1, uint64(500)
	if raceEnabled {
		step, chunks = 61, 50
	}
	src := mixedSource()
	for n := 0; n <= len(src); n += step {
		checkIdentity(t, src[:n])
	}
	checkIdentity(t, repetitivePayload())
	for idx := range chunks {
		checkIdentity(t, devopsPayload(1, idx))
	}
}

// TestCompressMatchesFreshWriterAcrossGC forces a collection before every
// call, so each one runs on a writer and reader that were freed and built
// again.
func TestCompressMatchesFreshWriterAcrossGC(t *testing.T) {
	src := mixedSource()
	payloads := [][]byte{repetitivePayload()}
	for n := 0; n <= len(src); n += 257 {
		payloads = append(payloads, src[:n])
	}
	for idx := range uint64(20) {
		payloads = append(payloads, devopsPayload(2, idx))
	}
	for _, p := range payloads {
		runtime.GC()
		checkIdentity(t, p)
	}
}

// TestCompressReleasesWriterAtGC pins the reason the writer cache holds
// weak pointers: a collection frees the ~800 KB writer, so the next
// Compress builds a new one. A sync.Pool of strong pointers would hand
// back the same writer from its victim cache and fail this.
func TestCompressReleasesWriterAtGC(t *testing.T) {
	data := devopsPayload(4, 0)
	compress := func() {
		if _, err := chunk.Compress(chunk.CompressionZlib, data); err != nil {
			t.Fatal(err)
		}
	}
	// One P, so a strong pool would find its writer in the victim slot of
	// the P that put it; every round must show the rebuild.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for round := range 3 {
		compress()
		compress() // reuses the writer, so it triggers no collection
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		compress()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < 256<<10 {
			t.Fatalf("round %d: Compress after a GC allocated %d bytes; a cached writer survived the collection", round, got)
		}
	}
}

func TestCompressConcurrent(t *testing.T) {
	const workers, perWorker = 8, 100
	want := make([][][]byte, workers)
	for w := range want {
		for i := range perWorker {
			want[w] = append(want[w], freshZlib(t, devopsPayload(uint64(w), uint64(i))))
		}
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				data := devopsPayload(uint64(w), uint64(i))
				z, err := chunk.Compress(chunk.CompressionZlib, data)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(z, want[w][i]) {
					t.Errorf("worker %d chunk %d: compressed bytes differ", w, i)
					return
				}
				back, err := chunk.Decompress(chunk.CompressionZlib, z)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(back, data) {
					t.Errorf("worker %d chunk %d: round trip differs", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecompressFailureDoesNotPoison checks that a reader which failed on
// one payload cannot affect the next call.
func TestDecompressFailureDoesNotPoison(t *testing.T) {
	data := devopsPayload(5, 0)
	good, err := chunk.Compress(chunk.CompressionZlib, data)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(after string) {
		t.Helper()
		back, err := chunk.Decompress(chunk.CompressionZlib, good)
		if err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("after %s: round trip differs", after)
		}
	}
	roundTrip("nothing")

	if _, err := chunk.Decompress(chunk.CompressionZlib, []byte("not a zlib stream")); err == nil {
		t.Fatal("garbage header decompressed")
	}
	roundTrip("a garbage header")

	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-1] ^= 0xFF // breaks the Adler-32 trailer
	if _, err := chunk.Decompress(chunk.CompressionZlib, corrupt); err == nil {
		t.Fatal("corrupt checksum decompressed")
	}
	roundTrip("a bad checksum")

	if _, err := chunk.Decompress(chunk.CompressionZlib, good[:len(good)/2]); err == nil {
		t.Fatal("truncated stream decompressed")
	}
	roundTrip("a truncated stream")

	if raceEnabled {
		return // inflating 64 MiB under the race detector takes ~10 s
	}
	// A bomb: 64 MiB + 1 of zeros, written in slices so the test never
	// holds the plaintext.
	var bomb bytes.Buffer
	zw := zlib.NewWriter(&bomb)
	zeros := make([]byte, 1<<20)
	for range 64 {
		if _, err := zw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := zw.Write(zeros[:1]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = chunk.Decompress(chunk.CompressionZlib, bomb.Bytes())
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-limit payload: err = %v, want the size limit", err)
	}
	roundTrip("an over-limit payload")
}
