package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/kv"
)

// pruneStep is how many node deletes Prune commits per store Batch.
const pruneStep = 256

// DefaultFanout is the paper's evaluation fanout ("we instantiate 64-ary
// index trees", §6).
const DefaultFanout = 64

// Config parameterizes one stream's aggregation tree.
type Config struct {
	// Fanout is the tree arity k (default 64).
	Fanout int
	// VectorLen is the digest vector length (elements per node).
	VectorLen int
	// CacheBytes is the LRU node-cache budget; <= 0 means unbounded.
	CacheBytes int64
	// MaxLevels caps the tree height above the leaves; 0 picks the
	// smallest height whose capacity is at least 2^36 chunks.
	MaxLevels int
}

func (c *Config) applyDefaults() error {
	if c.Fanout == 0 {
		c.Fanout = DefaultFanout
	}
	if c.Fanout < 2 {
		return fmt.Errorf("index: fanout %d < 2", c.Fanout)
	}
	if c.VectorLen < 1 {
		return fmt.Errorf("index: vector length %d < 1", c.VectorLen)
	}
	if c.MaxLevels == 0 {
		capacity := uint64(1) << 36
		levels := 1
		span := uint64(c.Fanout)
		for span < capacity {
			span *= uint64(c.Fanout)
			levels++
		}
		c.MaxLevels = levels
	}
	return nil
}

// Tree is one stream's time-partitioned aggregation tree, persisted in a KV
// store behind an LRU cache. Level 0 holds per-chunk digests; node
// (level, idx) holds the homomorphic sum over chunk positions
// [idx·k^level, (idx+1)·k^level). Ingest is append-only (time series are
// in-order), so updating the tree is a root-path read-modify-write.
//
// Tree is safe for concurrent use: appends serialize behind a lock,
// queries run concurrently and never wait for an append's store write.
type Tree struct {
	store    kv.Store
	streamID string
	metaKey  string // holds Count, big-endian
	cfg      Config
	cache    *stripedCache

	mu    sync.Mutex    // serializes appends and prunes
	count atomic.Uint64 // number of leaf digests appended
}

// Open loads (or initializes) the tree for streamID.
func Open(store kv.Store, streamID string, cfg Config) (*Tree, error) {
	if store == nil {
		return nil, errors.New("index: nil store")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	t := &Tree{store: store, streamID: streamID, metaKey: "i/" + streamID + "/meta", cfg: cfg,
		cache: newStripedCache(cfg.CacheBytes)}
	meta, err := store.Get(t.metaKey)
	switch {
	case err == nil:
		if len(meta) != 8 {
			return nil, fmt.Errorf("index: corrupt meta for stream %q", streamID)
		}
		t.count.Store(binary.BigEndian.Uint64(meta))
	case errors.Is(err, kv.ErrNotFound):
		// fresh stream
	default:
		return nil, err
	}
	return t, nil
}

// Count returns the number of chunk digests appended so far.
func (t *Tree) Count() uint64 { return t.count.Load() }

// Fanout returns the tree arity.
func (t *Tree) Fanout() int { return t.cfg.Fanout }

// nodeKey builds the storage key for node (level, idx). Identifiers are
// computed from the node's position alone, so no references are stored
// (paper §4.6 "we compute the identifier of a node/chunk on-the-fly").
func (t *Tree) nodeKey(level int, idx uint64) string {
	b := make([]byte, 0, len(t.streamID)+24)
	b = append(b, 'i', '/')
	b = append(b, t.streamID...)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(level), 16)
	b = append(b, '/')
	b = strconv.AppendUint(b, idx, 16)
	return string(b)
}

func encodeVec(vec []uint64) []byte {
	buf := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.BigEndian.PutUint64(buf[i*8:], v)
	}
	return buf
}

func decodeVec(data []byte, want int) ([]uint64, error) {
	if len(data) != 8*want {
		return nil, fmt.Errorf("index: node has %d bytes, want %d", len(data), 8*want)
	}
	vec := make([]uint64, want)
	for i := range vec {
		vec[i] = binary.BigEndian.Uint64(data[i*8:])
	}
	return vec, nil
}

// loadNode fetches a node vector through the cache. The returned slice is
// shared with the cache; callers must copy before mutating.
func (t *Tree) loadNode(level int, idx uint64) ([]uint64, error) {
	key := t.nodeKey(level, idx)
	if vec, ok := t.cache.get(key); ok {
		return vec, nil
	}
	data, err := t.store.Get(key)
	if err != nil {
		return nil, err
	}
	vec, err := decodeVec(data, t.cfg.VectorLen)
	if err != nil {
		return nil, err
	}
	t.cache.put(key, level, vec)
	return vec, nil
}

// pendingNode is one node write staged by AppendBatch; it is cached only
// once the batch carrying it has committed.
type pendingNode struct {
	key   string
	level int
	vec   []uint64
}

// appendScratch is AppendBatch's working memory: the op list, the staged
// nodes, each digest's node index at the current level and one folded
// delta. It is pooled rather than kept per tree, so idle streams hold
// none of it.
type appendScratch struct {
	ops   []kv.Op
	nodes []pendingNode
	idxs  []uint64
	delta []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(appendScratch) }}

// Append ingests the encrypted digest for the next chunk position: an
// AppendBatch of one digest with no caller ops.
func (t *Tree) Append(pos uint64, digest []uint64) error {
	return t.AppendBatch(pos, [][]uint64{digest}, nil)
}

// AppendBatch ingests the encrypted digests for the next len(digests)
// chunk positions as one store write. pos must equal Count() (in-order,
// append-only, as the paper assumes).
//
// The leaf, ancestor and meta puts are appended to ops — the caller's own
// mutations, such as the chunk ciphertexts, possibly none — and the whole
// list is committed with a single store Batch, so a durable store logs the
// insert as one record and recovers it all-or-nothing. Only after that
// Batch succeeds are the new nodes cached and Count advanced: a failed
// append leaves the tree as it was, and a retry at the same position
// writes the same bytes. ops is only read.
//
// Digests landing in the same ancestor are folded into one delta first,
// so each touched ancestor is written once (≈ N/k per level) and the meta
// key once per batch. The node bytes equal those of N single appends —
// modular addition is associative — which TestHotPathGoldenParity pins
// against golden store dumps.
func (t *Tree) AppendBatch(pos uint64, digests [][]uint64, ops []kv.Op) error {
	n := uint64(len(digests))
	for i, digest := range digests {
		if len(digest) != t.cfg.VectorLen {
			return fmt.Errorf("index: digest %d has %d elements, want %d", i, len(digest), t.cfg.VectorLen)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if count := t.count.Load(); pos != count {
		return fmt.Errorf("index: append at position %d, expected %d", pos, count)
	}
	sc := scratchPool.Get().(*appendScratch)
	defer func() {
		clear(sc.ops) // drop the chunk and node bytes the pool would pin
		clear(sc.nodes)
		scratchPool.Put(sc)
	}()
	nodes := sc.nodes[:0]
	for i, digest := range digests {
		nodes = append(nodes, pendingNode{t.nodeKey(0, pos+uint64(i)), 0, append([]uint64(nil), digest...)})
	}
	k := uint64(t.cfg.Fanout)
	// idxs[i] tracks digest i's node index at the current level; dividing
	// per level sidesteps k^level overflow for tall configured trees.
	idxs := sc.idxs[:0]
	for i := range n {
		idxs = append(idxs, pos+i)
	}
	sc.idxs = idxs
	delta := slices.Grow(sc.delta[:0], t.cfg.VectorLen)[:t.cfg.VectorLen]
	sc.delta = delta
	for level := 1; level <= t.cfg.MaxLevels; level++ {
		for i := range idxs {
			idxs[i] /= k
		}
		for i := uint64(0); i < n; {
			j := i + 1
			for j < n && idxs[j] == idxs[i] {
				j++
			}
			// Fold digests [i, j) — the run landing in node idxs[i] —
			// into one delta, then apply it with a single
			// read-modify-write.
			copy(delta, digests[i])
			for x := i + 1; x < j; x++ {
				d := digests[x]
				for e := range delta {
					delta[e] += d[e]
				}
			}
			cur, err := t.loadNode(level, idxs[i])
			var next []uint64
			switch {
			case err == nil:
				next = make([]uint64, len(cur))
				for e := range cur {
					next[e] = cur[e] + delta[e]
				}
			case errors.Is(err, kv.ErrNotFound):
				next = append([]uint64(nil), delta...)
			default:
				return err
			}
			nodes = append(nodes, pendingNode{t.nodeKey(level, idxs[i]), level, next})
			i = j
		}
	}
	sc.nodes = nodes
	all := append(sc.ops[:0], ops...)
	for _, nd := range nodes {
		all = append(all, kv.Op{Kind: kv.OpPut, Key: nd.key, Value: encodeVec(nd.vec)})
	}
	meta := make([]byte, 8)
	binary.BigEndian.PutUint64(meta, pos+n)
	all = append(all, kv.Op{Kind: kv.OpPut, Key: t.metaKey, Value: meta})
	sc.ops = all
	if err := t.store.Batch(all); err != nil {
		return err
	}
	for _, nd := range nodes {
		t.cache.put(nd.key, nd.level, nd.vec)
	}
	t.count.Store(pos + n)
	return nil
}

// Query returns the homomorphic aggregate over chunk positions [a, b). It
// decomposes the range into maximal aligned nodes — the paper's
// O(2(k−1)·log_k n) worst case — touching as few nodes as possible.
func (t *Tree) Query(a, b uint64) ([]uint64, error) {
	count := t.count.Load()
	if a >= b {
		return nil, fmt.Errorf("index: empty query range [%d,%d)", a, b)
	}
	if b > count {
		return nil, fmt.Errorf("index: query range [%d,%d) beyond ingested data (%d chunks)", a, b, count)
	}
	agg := make([]uint64, t.cfg.VectorLen)
	k := uint64(t.cfg.Fanout)
	level := 0
	addNode := func(level int, idx uint64) error {
		vec, err := t.loadNode(level, idx)
		if err != nil {
			return fmt.Errorf("index: node (%d,%d): %w", level, idx, err)
		}
		for e := range agg {
			agg[e] += vec[e]
		}
		return nil
	}
	// The decomposition only ever selects nodes whose span lies fully
	// inside [a, b) ⊆ [0, count), so partially-filled trailing nodes are
	// never read: every selected node holds the complete sum of its span.
	for a < b {
		for a%k != 0 && a < b {
			if err := addNode(level, a); err != nil {
				return nil, err
			}
			a++
		}
		for b%k != 0 && a < b {
			b--
			if err := addNode(level, b); err != nil {
				return nil, err
			}
		}
		if a >= b {
			break
		}
		if level == t.cfg.MaxLevels {
			// Cannot climb further; sweep remaining nodes here.
			for ; a < b; a++ {
				if err := addNode(level, a); err != nil {
					return nil, err
				}
			}
			break
		}
		a /= k
		b /= k
		level++
	}
	return agg, nil
}

// QueryWindows aggregates [a, b) into consecutive windows of f chunks and
// returns one aggregate per window. b−a must be a multiple of f. This
// serves resolution-restricted principals and granularity queries (Fig. 8):
// each window decrypts with a single outer-leaf pair.
func (t *Tree) QueryWindows(a, b, f uint64) ([][]uint64, error) {
	if f == 0 {
		return nil, errors.New("index: zero window size")
	}
	if (b-a)%f != 0 {
		return nil, fmt.Errorf("index: range [%d,%d) not a multiple of window %d", a, b, f)
	}
	out := make([][]uint64, 0, (b-a)/f)
	for w := a; w < b; w += f {
		vec, err := t.Query(w, w+f)
		if err != nil {
			return nil, err
		}
		out = append(out, vec)
	}
	return out, nil
}

// Prune removes index nodes below the given level for chunk positions
// [a, b): TimeCrypt's data decay / rollup support (§4.5 "Data decay").
// Coarser statistics (level and above) remain queryable; finer granularity
// in the pruned range is gone. a and b should be aligned to k^level or the
// adjacent partially-covered nodes are preserved.
func (t *Tree) Prune(level int, a, b uint64) error {
	if level < 1 || level > t.cfg.MaxLevels {
		return fmt.Errorf("index: prune level %d out of range [1,%d]", level, t.cfg.MaxLevels)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := make([]kv.Op, 0, pruneStep)
	// flush deletes the gathered nodes with one store write, then drops
	// them from the cache.
	flush := func() error {
		if err := t.store.Batch(ops); err != nil {
			return err
		}
		for _, op := range ops {
			t.cache.remove(op.Key)
		}
		ops = ops[:0]
		return nil
	}
	span := uint64(1)
	k := uint64(t.cfg.Fanout)
	for l := 0; l < level; l++ {
		lo, hi := a/span, b/span // node index range at level l
		for idx := lo; idx*span < b && idx < hi; idx++ {
			ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: t.nodeKey(l, idx)})
			if len(ops) == pruneStep {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		span *= k
	}
	return flush()
}

// CacheStats reports LRU cache effectiveness for benchmarks.
func (t *Tree) CacheStats() (hits, misses uint64, usedBytes int64, entries int) {
	return t.cache.stats()
}

// LevelSpan returns k^level, the number of chunk positions one node at the
// given level covers; callers use it to align rollups.
func (t *Tree) LevelSpan(level int) uint64 {
	span := uint64(1)
	for l := 0; l < level; l++ {
		span *= uint64(t.cfg.Fanout)
	}
	return span
}
