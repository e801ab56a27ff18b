package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/kv/durable"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// Deployment shape: a router served over TCP in front of groupCount
// replication groups of groupSize members each, every member a
// quorum-acknowledging replica.Node over its own fsync-always durable
// store, served by its own TCP front end on loopback.
const (
	groupCount = 2
	groupSize  = 3
)

func quiet(string, ...any) {}

// serving is one TCP front end and the goroutine running it.
type serving struct {
	addr   string
	srv    *server.Server
	cancel context.CancelFunc
	done   chan struct{}
}

func serve(lis net.Listener, h server.Handler) *serving {
	ctx, cancel := context.WithCancel(context.Background())
	s := &serving{addr: lis.Addr().String(), srv: server.NewServer(h, quiet), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ctx, lis) // ends with the listener closed by stop
	}()
	return s
}

func (s *serving) stop() {
	s.cancel()
	s.srv.Close()
	<-s.done
}

type member struct {
	name  string
	dir   string
	ds    *durable.Store
	store *store
	node  *replica.Node
	fe    *frontEnd
	srv   *serving
}

type group struct {
	name    string
	members []*member // members[0] leads
	shard   *shardHandler
}

func (g *group) leader() *member { return g.members[0] }

type deployment struct {
	dir      string
	groups   []*group
	router   *cluster.Router
	routerFE *frontEnd
	routerSv *serving
}

// deploy boots the whole deployment under dir. cacheBytes is every
// engine's per-stream index cache budget (0 = unbounded).
func deploy(dir string, tr *tracer, cacheBytes int64) (*deployment, error) {
	d := &deployment{dir: dir}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	var shards []cluster.Shard
	for gi := 0; gi < groupCount; gi++ {
		g := &group{name: fmt.Sprintf("g%d", gi)}
		d.groups = append(d.groups, g)
		lis := make([]net.Listener, groupSize)
		addrs := make([]string, groupSize)
		for i := range lis {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			lis[i], addrs[i] = l, l.Addr().String()
		}
		for i := range lis {
			m, err := startMember(dir, fmt.Sprintf("%s/m%d", g.name, i), addrs[i], lis[i], tr, cacheBytes)
			if err != nil {
				for _, l := range lis[i:] {
					l.Close()
				}
				return nil, err
			}
			g.members = append(g.members, m)
		}
		if err := g.leader().node.Lead(addrs); err != nil {
			return nil, err
		}
		sh, err := cluster.NewReplicatedShardOptions(g.name, addrs, cluster.GroupOptions{Quorum: true, Logf: quiet})
		if err != nil {
			return nil, err
		}
		if g.shard, err = newShardHandler(sh.Handler, tr, g.name); err != nil {
			return nil, err
		}
		shards = append(shards, cluster.Shard{Name: g.name, Handler: g.shard})
	}
	var err error
	if d.router, err = cluster.NewRouter(shards, cluster.Options{}); err != nil {
		return nil, err
	}
	if d.routerFE, err = newFrontEnd(d.router, tr, "cluster.router", "router"); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.routerSv = serve(l, d.routerFE)
	ok = true
	return d, nil
}

func startMember(dir, name, addr string, lis net.Listener, tr *tracer, cacheBytes int64) (*member, error) {
	m := &member{name: name, dir: filepath.Join(dir, name)}
	var err error
	if m.ds, err = durable.Open(m.dir, durable.Options{Sync: durable.SyncAlways}); err != nil {
		lis.Close()
		return nil, err
	}
	m.store = &store{inner: m.ds, tr: tr, node: name}
	m.node, err = replica.New(m.store, server.Config{CacheBytes: cacheBytes}, replica.Options{
		Self: addr, Quorum: true, StoreSeq: m.ds.CommittedSeq, Logf: quiet,
	})
	if err != nil {
		m.ds.Close()
		lis.Close()
		return nil, err
	}
	if m.fe, err = newFrontEnd(m.node, tr, "replica.member", name); err != nil {
		m.node.Close()
		m.ds.Close()
		lis.Close()
		return nil, err
	}
	m.srv = serve(lis, m.fe)
	return m, nil
}

func (d *deployment) members() []*member {
	var out []*member
	for _, g := range d.groups {
		out = append(out, g.members...)
	}
	return out
}

// groupOf returns the group the router places a stream on.
func (d *deployment) groupOf(uuid string) *group {
	owner := d.router.Owner(uuid)
	for _, g := range d.groups {
		if g.name == owner {
			return g
		}
	}
	return nil
}

// converged waits until every follower's replication watermark equals its
// leader's, and reports whether that happened before the deadline.
func (d *deployment) converged(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if d.maxLag() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// maxLag is the largest leader-minus-follower watermark gap, in records.
func (d *deployment) maxLag() uint64 {
	var worst uint64
	for _, g := range d.groups {
		role, _, lw := g.leader().node.Status()
		if role != wire.ReplLeader {
			return ^uint64(0)
		}
		for _, m := range g.members[1:] {
			_, _, fw := m.node.Status()
			if fw < lw && lw-fw > worst {
				worst = lw - fw
			}
		}
	}
	return worst
}

// watchLag polls maxLag every 5 ms until the returned stop function is
// called, which returns the largest lag seen.
func (d *deployment) watchLag() (stop func() uint64) {
	done := make(chan struct{})
	worst := make(chan uint64)
	go func() {
		var w uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				worst <- w
				return
			case <-tick.C:
				w = max(w, d.maxLag())
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-worst
	}
}

// diskBytes is the size of every member's WAL segments and snapshots.
func (d *deployment) diskBytes() int64 {
	var total int64
	for _, m := range d.members() {
		entries, err := os.ReadDir(m.dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
		}
	}
	return total
}

// close stops every front end, node and store, then removes the data.
func (d *deployment) close() {
	if d.routerSv != nil {
		d.routerSv.stop()
	}
	if d.router != nil {
		d.router.Close()
	}
	for _, m := range d.members() {
		m.srv.stop()
		m.node.Close()
		m.ds.Close()
	}
	os.RemoveAll(d.dir)
}
