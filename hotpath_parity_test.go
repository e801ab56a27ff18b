// Golden-vector parity tests for the hot-path allocation purge: the pooled
// keystream crypto, reused wire buffers, and batched index appends must be
// byte-identical to the pre-optimization path. The goldens in
// testdata/hotpath_golden.json were captured from the seed implementation
// (aes.NewCipher per PRG step, per-frame allocation, per-chunk Append)
// before any optimization landed; regenerate only with
// TIMECRYPT_UPDATE_GOLDEN=1 and a deliberate reason. A wire version bump
// is one such reason: it moves only the request-envelope header of the
// frames section (the version byte, plus the sender-epoch field v6 added),
// and every crypto/index section must survive unchanged.
package timecrypt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/wire"
)

const goldenPath = "testdata/hotpath_golden.json"

// hotpathGolden freezes the observable bytes of the three optimized layers.
// All integers are hex strings so JSON round-trips preserve full uint64
// precision.
type hotpathGolden struct {
	// PRG maps each construction to a 32-node expansion chain from a fixed
	// seed, alternating left/right children.
	PRG map[string][]string `json:"prg"`
	// SubKeys / SubKeysAt are per-element subkey expansions of one leaf.
	SubKeys   []string `json:"subkeys"`
	SubKeysAt []string `json:"subkeys_at"`
	// CipherFirst holds the first ciphertext vectors of a 100-chunk
	// EncryptDigest run; CipherSHA256 hashes the whole run.
	CipherFirst  [][]string `json:"cipher_first"`
	CipherSHA256 string     `json:"cipher_sha256"`
	// ChunkKeys are the derived AES-GCM chunk keys for the same run.
	ChunkKeys []string `json:"chunk_keys"`
	// Frames are wire envelope encodings for fixed messages.
	Frames map[string]string `json:"frames"`
	// IndexSmall is the full store dump of a fanout-4 tree after 130
	// appends; IndexDefaultSHA256 hashes a fanout-64 dump.
	IndexSmall         map[string]string `json:"index_small"`
	IndexDefaultSHA256 string            `json:"index_default_sha256"`
	// CoverTokens are marshalled tokens for fixed grant ranges.
	CoverTokens []string `json:"cover_tokens"`
}

func u64hex(v uint64) string { return fmt.Sprintf("%016x", v) }

func vecHex(vec []uint64) []string {
	out := make([]string, len(vec))
	for i, v := range vec {
		out[i] = u64hex(v)
	}
	return out
}

// computeGolden derives every golden value through the public API, so the
// same code both captures the seed behavior and checks the optimized one.
func computeGolden(t *testing.T) *hotpathGolden {
	t.Helper()
	g := &hotpathGolden{PRG: map[string][]string{}, Frames: map[string]string{}}

	// --- PRG expansion chains -------------------------------------------
	seed := core.Node{0xA5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0x5A}
	for _, kind := range []core.PRGKind{core.PRGAES, core.PRGSHA256, core.PRGHMAC} {
		prg := core.NewPRG(kind)
		node := seed
		chain := make([]string, 0, 32)
		for i := 0; i < 16; i++ {
			l, r := prg.Expand(node)
			chain = append(chain, hex.EncodeToString(l[:]), hex.EncodeToString(r[:]))
			if i%2 == 0 {
				node = l
			} else {
				node = r
			}
		}
		g.PRG[kind.String()] = chain
	}

	// --- subkey expansion ------------------------------------------------
	leaf := core.Node{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA}
	g.SubKeys = vecHex(core.SubKeys(leaf, make([]uint64, 19)))
	g.SubKeysAt = vecHex(core.SubKeysAt(leaf, []uint32{0, 3, 17, 42}, nil))

	// --- HEAC ciphertexts + chunk keys over a sequential walker ----------
	tree, err := core.NewTree(core.NewPRG(core.PRGAES), core.DefaultTreeHeight, seed)
	if err != nil {
		t.Fatal(err)
	}
	enc := core.NewEncryptor(tree.NewWalker())
	h := sha256.New()
	m := make([]uint64, 19)
	ct := make([]uint64, 19)
	for i := uint64(0); i < 100; i++ {
		for e := range m {
			m[e] = i*31 + uint64(e)*7
		}
		if _, err := enc.EncryptDigest(i, m, ct); err != nil {
			t.Fatal(err)
		}
		for _, v := range ct {
			var b [8]byte
			for j := 0; j < 8; j++ {
				b[j] = byte(v >> (56 - 8*j))
			}
			h.Write(b[:])
		}
		if i < 2 {
			g.CipherFirst = append(g.CipherFirst, vecHex(ct))
		}
		key, err := enc.ChunkKeyAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if i < 8 {
			g.ChunkKeys = append(g.ChunkKeys, hex.EncodeToString(key[:]))
		}
	}
	g.CipherSHA256 = hex.EncodeToString(h.Sum(nil))

	// --- wire frames -----------------------------------------------------
	frame := func(name string, write func(w *bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g.Frames[name] = hex.EncodeToString(buf.Bytes())
	}
	chunkBytes := bytes.Repeat([]byte{0xC3, 0x11}, 300)
	frame("req_insert", func(w *bytes.Buffer) error {
		return wire.WriteRequest(w, 7, 1500, &wire.InsertChunk{UUID: "stream-a", Chunk: chunkBytes})
	})
	frame("req_batch", func(w *bytes.Buffer) error {
		return wire.WriteRequest(w, 8, 0, &wire.Batch{Reqs: []wire.Message{
			&wire.InsertChunk{UUID: "stream-a", Chunk: chunkBytes},
			&wire.StatRange{UUIDs: []string{"stream-a", "stream-b"}, Ts: 100, Te: 900, WindowChunks: 4},
		}})
	})
	frame("req_stat", func(w *bytes.Buffer) error {
		return wire.WriteRequest(w, 9, 250, &wire.StatRange{UUIDs: []string{"s"}, Ts: -5, Te: 5})
	})
	frame("resp_ok", func(w *bytes.Buffer) error {
		return wire.WriteResponse(w, 7, false, &wire.OK{})
	})
	frame("resp_stat_more", func(w *bytes.Buffer) error {
		return wire.WriteResponse(w, 9, true, &wire.StatRangeResp{
			FromChunk: 3, ToChunk: 11,
			Windows: [][]uint64{{1, 2, 3}, {0xFFFFFFFFFFFFFFFF, 0, 42}},
		})
	})
	frame("resp_err", func(w *bytes.Buffer) error {
		return wire.WriteResponse(w, 12, false, &wire.Error{Code: wire.CodeWrongShard, Aux: 4, Msg: "moved"})
	})

	// --- index node bytes ------------------------------------------------
	digest := func(i uint64, vlen int) []uint64 {
		vec := make([]uint64, vlen)
		for e := range vec {
			vec[e] = i*1000003 + uint64(e)*97 + 1
		}
		return vec
	}
	g.IndexSmall = indexDump(t, 4, 3, 130, digest, false)
	g.IndexDefaultSHA256 = hashDump(indexDump(t, 64, 19, 130, digest, false))

	// --- cover tokens ----------------------------------------------------
	for _, r := range [][2]uint64{{0, 0}, {5, 1000}, {123456, 999999}} {
		tokens, err := tree.Cover(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range tokens {
			b, _ := tk.MarshalBinary()
			g.CoverTokens = append(g.CoverTokens, hex.EncodeToString(b))
		}
	}
	return g
}

// indexDump appends n deterministic digests to a fresh tree and returns the
// full key -> hex(value) store dump. useBatch routes the appends through
// AppendBatch in irregular group sizes (exercising group/ancestor folding);
// the resulting bytes must match the sequential-Append golden exactly.
func indexDump(t *testing.T, fanout, vlen int, n uint64, digest func(uint64, int) []uint64, useBatch bool) map[string]string {
	t.Helper()
	store := kv.NewMemStore()
	tree, err := index.Open(store, "golden", index.Config{Fanout: fanout, VectorLen: vlen})
	if err != nil {
		t.Fatal(err)
	}
	if useBatch {
		sizes := []int{1, 2, 3, 5, 7, 64, 13, 1, 100}
		pos := uint64(0)
		si := 0
		for pos < n {
			sz := uint64(sizes[si%len(sizes)])
			si++
			if pos+sz > n {
				sz = n - pos
			}
			batch := make([][]uint64, sz)
			for i := range batch {
				batch[i] = digest(pos+uint64(i), vlen)
			}
			if err := tree.AppendBatch(pos, batch, nil); err != nil {
				t.Fatal(err)
			}
			pos += sz
		}
	} else {
		for i := uint64(0); i < n; i++ {
			if err := tree.Append(i, digest(i, vlen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	dump := map[string]string{}
	err = store.Scan("", func(key string, value []byte) bool {
		dump[key] = hex.EncodeToString(value)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

func hashDump(dump map[string]string) string {
	keys := make([]string, 0, len(dump))
	for k := range dump {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, dump[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHotPathGoldenParity proves the optimized hot path produces the exact
// bytes the seed implementation did: same PRG expansions, subkeys, HEAC
// ciphertexts, chunk keys, wire frames, index nodes, and cover tokens.
func TestHotPathGoldenParity(t *testing.T) {
	if os.Getenv("TIMECRYPT_UPDATE_GOLDEN") == "1" {
		g := computeGolden(t)
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with TIMECRYPT_UPDATE_GOLDEN=1 to capture): %v", err)
	}
	var want hotpathGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := computeGolden(t)

	wantJSON, _ := json.MarshalIndent(&want, "", "  ")
	gotJSON, _ := json.MarshalIndent(got, "", "  ")
	if !bytes.Equal(wantJSON, gotJSON) {
		diffGolden(t, &want, got)
	}

	// AppendBatch must fold digests into the exact node bytes the
	// sequential seed-era Append produced, for arbitrary batch sizes.
	digest := func(i uint64, vlen int) []uint64 {
		vec := make([]uint64, vlen)
		for e := range vec {
			vec[e] = i*1000003 + uint64(e)*97 + 1
		}
		return vec
	}
	batchSmall := indexDump(t, 4, 3, 130, digest, true)
	if h, wantH := hashDump(batchSmall), hashDump(want.IndexSmall); h != wantH {
		t.Errorf("AppendBatch fanout-4 store dump diverged from sequential Append golden")
	}
	if h := hashDump(indexDump(t, 64, 19, 130, digest, true)); h != want.IndexDefaultSHA256 {
		t.Errorf("AppendBatch fanout-64 store dump diverged from sequential Append golden")
	}
}

// diffGolden reports which golden section diverged (a full JSON diff would
// be unreadable).
func diffGolden(t *testing.T, want, got *hotpathGolden) {
	t.Helper()
	section := func(name string, w, g any) {
		wj, _ := json.Marshal(w)
		gj, _ := json.Marshal(g)
		if !bytes.Equal(wj, gj) {
			t.Errorf("golden section %q diverged:\n  want %.200s\n  got  %.200s", name, wj, gj)
		}
	}
	section("prg", want.PRG, got.PRG)
	section("subkeys", want.SubKeys, got.SubKeys)
	section("subkeys_at", want.SubKeysAt, got.SubKeysAt)
	section("cipher_first", want.CipherFirst, got.CipherFirst)
	section("cipher_sha256", want.CipherSHA256, got.CipherSHA256)
	section("chunk_keys", want.ChunkKeys, got.ChunkKeys)
	section("frames", want.Frames, got.Frames)
	section("index_small", want.IndexSmall, got.IndexSmall)
	section("index_default_sha256", want.IndexDefaultSHA256, got.IndexDefaultSHA256)
	section("cover_tokens", want.CoverTokens, got.CoverTokens)
}
