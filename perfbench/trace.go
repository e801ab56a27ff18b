package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/sub"
	"repro/internal/wire"
)

// The wrappers in this file sit around the public faces of each layer:
// the client transport, the TCP front ends' handlers, the router's shard
// handlers and the key-value store under every replica. Each forwards
// exactly the optional interfaces its wrapped value implements, so a
// traced deployment takes the same code paths as an untraced one.
//
// Counters (calls, ops, bytes) are always kept: they are single atomic
// adds and they are what the exact per-layer counts are made of. Spans
// (timestamps, parent links, the goroutine that times an asynchronous
// call) exist only when the tracer is on.

// span is one timed call at a layer boundary. parent links a call to the
// call that caused it when both run in this process and share a context.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Node   string `json:"node,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Aux is the time the last response byte arrived on the connection,
	// recorded on query spans to end their stream children.
	Aux int64 `json:"aux_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type spanKey struct{}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span, returning the child context that carries its id.
// With tracing off it returns the context unchanged and a zero span.
func (t *tracer) begin(ctx context.Context, layer, node, kind string) (context.Context, span) {
	if !t.on {
		return ctx, span{}
	}
	s := span{ID: t.ids.Add(1), Layer: layer, Node: node, Kind: kind, Start: t.now()}
	if p, ok := ctx.Value(spanKey{}).(uint64); ok {
		s.Parent = p
	}
	return context.WithValue(ctx, spanKey{}, s.ID), s
}

func (t *tracer) end(s span) {
	if !t.on {
		return
	}
	s.End = t.now()
	t.add(s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// kindOf names a request for per-kind accounting. A Batch is named after
// its first element, so ingest batches and metadata batches stay apart.
func kindOf(m wire.Message) string {
	if b, ok := m.(*wire.Batch); ok {
		if len(b.Reqs) > 0 {
			return "Batch/" + kindOf(b.Reqs[0])
		}
		return "Batch"
	}
	if ra, ok := m.(*wire.ReplAppend); ok && len(ra.Records) == 0 {
		return "ReplHeartbeat"
	}
	return strings.TrimPrefix(fmt.Sprintf("%T", m), "*wire.")
}

// countConn counts the bytes a client connection carries and, when
// traced, when the last response bytes arrived. Outgoing flow-control
// frames are left out: whether a cursor's cancel is sent depends on
// whether the stream's last frame beat the cursor's Close.
type countConn struct {
	net.Conn
	tr       *tracer
	scan     frameScan // used only by the session's writer pump
	in, out  atomic.Int64
	lastRead atomic.Int64
}

// frameScan follows the request frames a session writes (a 4-byte length,
// the protocol version, the correlation ID as a uvarint, ...) across Write
// calls and tells flow-control frames, which ride correlation ID 0 (the
// single byte 0), from calls.
type frameScan struct {
	hdr     [6]byte
	have    int // header bytes of the current frame seen so far
	left    int // bytes of the current frame after its header
	control bool
}

// feed consumes written bytes and returns how many belong to call frames.
func (f *frameScan) feed(p []byte) int {
	calls := 0
	for len(p) > 0 {
		if f.have < len(f.hdr) {
			n := copy(f.hdr[f.have:], p)
			f.have += n
			p = p[n:]
			if f.have < len(f.hdr) {
				break
			}
			f.left = int(binary.BigEndian.Uint32(f.hdr[:4])) - (len(f.hdr) - 4)
			f.control = f.hdr[5] == 0
			if !f.control {
				calls += len(f.hdr)
			}
		}
		n := min(f.left, len(p))
		if !f.control {
			calls += n
		}
		f.left -= n
		p = p[n:]
		if f.left == 0 {
			f.have = 0
		}
	}
	return calls
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	if c.tr.on && n > 0 {
		c.lastRead.Store(c.tr.now())
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(c.scan.feed(p[:n])))
	return n, err
}

func (c *countConn) bytes() int64 { return c.in.Load() + c.out.Load() }

// clientConn is one client connection: a session over a counting conn,
// behind the traced transport.
type clientConn struct {
	conn *countConn
	sess *client.Session
	tr   *tracer
	name string
}

func dialClient(addr, name string, tr *tracer) (*clientConn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countConn{Conn: raw, tr: tr}
	return &clientConn{conn: cc, sess: client.NewSession(cc, client.SessionOptions{}), tr: tr, name: name}, nil
}

// RoundTrip implements client.Transport.
func (c *clientConn) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	if !c.tr.on {
		return c.sess.RoundTrip(ctx, req)
	}
	ctx, s := c.tr.begin(ctx, "client.rtt", c.name, kindOf(req))
	resp, err := c.sess.RoundTrip(ctx, req)
	c.tr.end(s)
	return resp, err
}

// Close implements client.Transport.
func (c *clientConn) Close() error { return c.sess.Close() }

// Do implements client.Doer. A traced call is timed to its completion by
// a goroutine that only waits; it issues nothing.
func (c *clientConn) Do(ctx context.Context, req wire.Message) (*client.Call, error) {
	if !c.tr.on {
		return c.sess.Do(ctx, req)
	}
	ctx, s := c.tr.begin(ctx, "client.rtt", c.name, kindOf(req))
	call, err := c.sess.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	go func() {
		<-call.Done()
		c.tr.end(s)
	}()
	return call, nil
}

// Stream implements client.Streamer. The stream's end is not visible
// here; the query wrapper closes the span at the last byte received.
func (c *clientConn) Stream(ctx context.Context, req wire.Message) (*client.Stream, error) {
	if !c.tr.on {
		return c.sess.Stream(ctx, req)
	}
	ctx, s := c.tr.begin(ctx, "client.stream", c.name, kindOf(req))
	st, err := c.sess.Stream(ctx, req)
	s.End = -1
	c.tr.add(s)
	return st, err
}

var (
	_ client.Transport = (*clientConn)(nil)
	_ client.Doer      = (*clientConn)(nil)
	_ client.Streamer  = (*clientConn)(nil)
)

// splitTransport sends subscriptions to one replication group's leader and
// everything else to the router: a router over replicated groups refuses
// subscriptions (see README.md), so the live workload watches its streams
// at their leader.
type splitTransport struct {
	main, subs *clientConn
}

func (t splitTransport) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	return t.main.RoundTrip(ctx, req)
}

func (t splitTransport) Close() error { return nil }

func (t splitTransport) Do(ctx context.Context, req wire.Message) (*client.Call, error) {
	return t.main.Do(ctx, req)
}

func (t splitTransport) Stream(ctx context.Context, req wire.Message) (*client.Stream, error) {
	if _, ok := req.(*wire.Subscribe); ok {
		return t.subs.Stream(ctx, req)
	}
	return t.main.Stream(ctx, req)
}

// frontEnd wraps the handler a TCP front end serves (the router, or a
// replica node). Both implement server.Subscriber, which is forwarded.
type frontEnd struct {
	inner server.Handler
	subs  server.Subscriber
	tr    *tracer
	layer string
	node  string
	// records counts replicated records received in non-empty ReplAppend
	// frames; frames counts those frames.
	records, frames atomic.Int64
}

func newFrontEnd(h server.Handler, tr *tracer, layer, node string) (*frontEnd, error) {
	sb, ok := h.(server.Subscriber)
	if !ok {
		return nil, fmt.Errorf("front end %s: %T does not serve subscriptions", node, h)
	}
	return &frontEnd{inner: h, subs: sb, tr: tr, layer: layer, node: node}, nil
}

// Handle implements server.Handler.
func (f *frontEnd) Handle(ctx context.Context, req wire.Message) wire.Message {
	if ra, ok := req.(*wire.ReplAppend); ok && len(ra.Records) > 0 {
		f.frames.Add(1)
		f.records.Add(int64(len(ra.Records)))
	}
	if !f.tr.on {
		return f.inner.Handle(ctx, req)
	}
	ctx, s := f.tr.begin(ctx, f.layer, f.node, kindOf(req))
	resp := f.inner.Handle(ctx, req)
	f.tr.end(s)
	return resp
}

// Subscribe implements server.Subscriber.
func (f *frontEnd) Subscribe(ctx context.Context, req *wire.Subscribe) (sub.Handle, error) {
	return f.subs.Subscribe(ctx, req)
}

// snapshotSource mirrors the optional capability the router asks of a
// shard handler for streamed stream exports.
type snapshotSource interface {
	SnapshotPages(ctx context.Context, req *wire.StreamSnapshot, emit func(*wire.SnapshotChunk) error) error
}

// shardHandler wraps one cluster.Shard handler (a replicated group). It
// implements io.Closer and SnapshotPages like the group does, and not
// server.Subscriber, which the group does not implement either.
type shardHandler struct {
	inner server.Handler
	snap  snapshotSource
	close io.Closer
	tr    *tracer
	node  string
	calls atomic.Int64
}

func newShardHandler(h server.Handler, tr *tracer, node string) (*shardHandler, error) {
	snap, ok1 := h.(snapshotSource)
	cl, ok2 := h.(io.Closer)
	_, ok3 := h.(server.Subscriber)
	if !ok1 || !ok2 || ok3 {
		return nil, fmt.Errorf("shard %s: %T has capabilities this wrapper does not mirror", node, h)
	}
	return &shardHandler{inner: h, snap: snap, close: cl, tr: tr, node: node}, nil
}

// Handle implements server.Handler.
func (s *shardHandler) Handle(ctx context.Context, req wire.Message) wire.Message {
	s.calls.Add(1)
	if !s.tr.on {
		return s.inner.Handle(ctx, req)
	}
	ctx, sp := s.tr.begin(ctx, "cluster.shard", s.node, kindOf(req))
	resp := s.inner.Handle(ctx, req)
	s.tr.end(sp)
	return resp
}

// SnapshotPages forwards the streamed export capability.
func (s *shardHandler) SnapshotPages(ctx context.Context, req *wire.StreamSnapshot, emit func(*wire.SnapshotChunk) error) error {
	return s.snap.SnapshotPages(ctx, req, emit)
}

// Close forwards io.Closer.
func (s *shardHandler) Close() error { return s.close.Close() }

// indexPrefix is the key prefix of index nodes (internal/index).
const indexPrefix = "i/"

// store wraps the durable store handed to one replica node. It forwards
// kv.ShallowScanner, the one optional capability replication uses.
type store struct {
	inner interface {
		kv.Store
		kv.ShallowScanner
	}
	tr   *tracer
	node string
	// writes counts write ops (each op of a Batch); the index counters
	// count reads and writes of index nodes.
	writes, indexReads, indexWrites atomic.Int64
}

func (s *store) Get(key string) ([]byte, error) {
	if strings.HasPrefix(key, indexPrefix) {
		s.indexReads.Add(1)
	}
	return s.inner.Get(key)
}

func (s *store) countWrite(key string) {
	s.writes.Add(1)
	if strings.HasPrefix(key, indexPrefix) && !strings.HasSuffix(key, "/meta") {
		s.indexWrites.Add(1)
	}
}

func (s *store) Put(key string, value []byte) error {
	s.countWrite(key)
	_, sp := s.tr.begin(context.Background(), "durable.commit", s.node, "Put")
	err := s.inner.Put(key, value)
	s.tr.end(sp)
	return err
}

func (s *store) Delete(key string) error {
	s.countWrite(key)
	_, sp := s.tr.begin(context.Background(), "durable.commit", s.node, "Delete")
	err := s.inner.Delete(key)
	s.tr.end(sp)
	return err
}

func (s *store) Batch(ops []kv.Op) error {
	for _, op := range ops {
		s.countWrite(op.Key)
	}
	_, sp := s.tr.begin(context.Background(), "durable.commit", s.node, "Batch")
	err := s.inner.Batch(ops)
	s.tr.end(sp)
	return err
}

func (s *store) Scan(prefix string, fn func(key string, value []byte) bool) error {
	return s.inner.Scan(prefix, fn)
}

func (s *store) ScanShallow(prefix string, fn func(key string, value []byte) bool) error {
	return s.inner.ScanShallow(prefix, fn)
}

func (s *store) Len() int         { return s.inner.Len() }
func (s *store) SizeBytes() int64 { return s.inner.SizeBytes() }
func (s *store) Close() error     { return s.inner.Close() }

var (
	_ kv.Store          = (*store)(nil)
	_ kv.ShallowScanner = (*store)(nil)
)

// durations returns the durations (ns) of the spans selected by keep.
func durations(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.End >= s.Start && keep(s) {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns, for each span selected by keep, its duration minus
// the part of its interval covered by its children's spans. A child span
// with End == -1 (a stream) is taken to end at streamEnd(parent).
func selfTimes(spans []span, keep func(span) bool, streamEnd func(span) int64) []float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, p := range spans {
		if p.End < p.Start || !keep(p) {
			continue
		}
		var iv [][2]int64
		for _, c := range children[p.ID] {
			end := c.End
			if end == -1 && streamEnd != nil {
				end = streamEnd(p)
			}
			lo, hi := max(c.Start, p.Start), min(end, p.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out = append(out, float64(p.dur()-covered(iv)))
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curHi {
			if started {
				total += curHi - curLo
			}
			curLo, curHi, started = x[0], x[1], true
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}
