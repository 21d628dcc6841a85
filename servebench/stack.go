package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/loadtest"
	"clickpass/internal/session"
	"clickpass/internal/vault"
	"clickpass/internal/vault/repl"
)

// backend is the storage a workload's server runs on.
type backend int

const (
	memoryBackend  backend = iota // in-memory Sharded vault
	durableBackend                // one durable node, fsync=always
	quorumBackend                 // durable primary with a quorum-acking follower
)

// durableOptions is pwserver's default durable store: fsync=always and
// the background compactor at its default ratio, which the attack's
// lockout counters set off during a run.
var durableOptions = vault.DurableOptions{Sync: vault.SyncAlways}

// prepared is the vault a run starts from, written before any timing:
// a JSON snapshot of the enrolled population and, for the durable
// backends, a log directory imported from it.
type prepared struct {
	snapshot string
	template string
}

func prepare(p *population, b backend, dir string) (*prepared, error) {
	recs, err := p.records()
	if err != nil {
		return nil, err
	}
	s := vault.NewSharded(0)
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			return nil, err
		}
	}
	prep := &prepared{snapshot: filepath.Join(dir, "vault.json")}
	if err := s.SaveTo(prep.snapshot); err != nil {
		return nil, err
	}
	if b == memoryBackend {
		return prep, nil
	}
	prep.template = filepath.Join(dir, "template")
	d, err := vault.OpenDurable(prep.template, durableOptions)
	if err != nil {
		return nil, err
	}
	if err := d.ImportJSON(prep.snapshot); err != nil {
		d.Close()
		return nil, err
	}
	return prep, d.Close()
}

// stack is one running server with its clients.
type stack struct {
	srv      *authproto.Server
	sess     *session.Manager
	primary  *vault.Durable
	follower *vault.Durable
	pnode    *repl.Node
	fnode    *repl.Node
	httpSrv  *http.Server
	served   chan struct{}
	clients  [conns]authsvc.Client
	dir      string // primary's log directory
}

// openStack brings up a server the way pwserver does by default —
// 1000 hash iterations, centered/13, lockout 10, the Ed25519 session
// tier, an overload queue of 4x maxconns — on the workload's backend,
// then connects the clients and pings each once. dir holds a copy of
// the prepared log directory for the durable backends. With a tracer,
// every layer is wrapped before the server sees it.
func openStack(w *workload, p *population, prep *prepared, dir string, tr *tracer) (st *stack, err error) {
	st = &stack{dir: filepath.Join(dir, "primary")}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var (
		store vault.Store
		kv    session.KV
	)
	switch w.backend {
	case memoryBackend:
		s, err := vault.OpenSharded(prep.snapshot, 0)
		if err != nil {
			return st, err
		}
		store = s
	case durableBackend, quorumBackend:
		if st.primary, err = vault.OpenDurable(st.dir, durableOptions); err != nil {
			return st, err
		}
		store, kv = st.primary, st.primary
	}
	if w.backend == quorumBackend {
		if st.follower, err = vault.OpenDurable(filepath.Join(dir, "follower"), durableOptions); err != nil {
			return st, err
		}
		quiet := func(string, ...any) {}
		st.pnode, err = repl.New(st.primary, repl.RolePrimary, repl.Options{Listen: "127.0.0.1:0", Ack: repl.AckQuorum, Logf: quiet})
		if err != nil {
			return st, err
		}
		st.fnode, err = repl.New(st.follower, repl.RoleFollower, repl.Options{Primary: st.pnode.ReplAddr(), Logf: quiet})
		if err != nil {
			return st, err
		}
		store, kv = st.pnode, st.pnode
	}

	cfg := p.cfg
	if tr != nil {
		cfg.Scheme = tr.scheme(cfg.Scheme)
		if store, err = tr.store(store); err != nil {
			return st, err
		}
		if kv != nil {
			kv = tr.kv(kv)
		}
	}
	if st.srv, err = authproto.NewServer(cfg, store, lockout); err != nil {
		return st, err
	}
	st.sess, err = session.New(session.Options{Alg: session.AlgEd25519, TTL: time.Hour, Store: kv})
	if err != nil {
		return st, err
	}
	if st.primary != nil {
		st.primary.SetKVWatch(st.sess.ApplyKV)
		if err := st.sess.Reseed(); err != nil {
			return st, err
		}
	}
	st.sess.Start()
	var tier authsvc.SessionTier = st.sess
	if tr != nil {
		tier = tr.session(tier)
	}
	st.srv.SetSession(tier)
	st.srv.SetMaxConns(authproto.DefaultMaxConns)
	st.srv.SetOverload(authsvc.OverloadPolicy{Queue: 4 * authproto.DefaultMaxConns, RetryAfter: authsvc.DefaultRetryAfter})
	if w.backend == quorumBackend {
		if err := caughtUp(st.pnode, st.primary, st.follower); err != nil {
			return st, err
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	if tr != nil {
		l = tr.listener(l, !w.http)
	}
	st.served = make(chan struct{})
	addr := l.Addr().String()
	dial := loadtest.TCPTransport(addr, 5*time.Second)
	if w.http {
		var h http.Handler = st.srv.HTTPHandler()
		if tr != nil {
			h = tr.handler(h)
		}
		st.httpSrv = &http.Server{Handler: h}
		go func() { defer close(st.served); _ = st.httpSrv.Serve(l) }()
		dial = loadtest.HTTPTransport("http://" + addr)
	} else {
		go func() { defer close(st.served); _ = st.srv.Serve(l) }()
	}
	// Clients connect and ping one after the other, so the server
	// accepts them in client order; the tracer relies on that.
	for c := range st.clients {
		if st.clients[c], err = dial(c); err != nil {
			return st, err
		}
		if err := st.clients[c].Ping(context.Background()); err != nil {
			return st, err
		}
	}
	return st, nil
}

// caughtUp waits until the follower has bootstrapped: attached, with no
// shipped record unacknowledged and as many records as the primary.
func caughtUp(n *repl.Node, primary, follower *vault.Durable) error {
	deadline := time.Now().Add(time.Minute)
	for {
		s := n.Stats()
		if len(s.Followers) == 1 && s.Followers[0].LagRecords == 0 && follower.Len() == primary.Len() {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("follower did not catch up within a minute")
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops everything the stack started and waits for it.
func (st *stack) close() error {
	var errs []error
	for _, c := range st.clients {
		if c != nil {
			_ = c.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.httpSrv != nil {
		errs = append(errs, st.httpSrv.Shutdown(ctx))
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Shutdown(ctx))
	}
	if st.served != nil {
		<-st.served
	}
	if st.sess != nil {
		st.sess.Close()
	}
	for _, n := range []*repl.Node{st.fnode, st.pnode} {
		if n != nil {
			errs = append(errs, n.Close())
		}
	}
	for _, d := range []*vault.Durable{st.follower, st.primary} {
		if d != nil {
			errs = append(errs, d.Close())
		}
	}
	return errors.Join(errs...)
}

// setUp opens the workload's stack from the prepared vault at least
// minCycles times and until setupFor has passed, timing each set-up
// from opening the vault to the last client's first OK ping. One
// set-up takes 50-250 ms, so a single sample mostly measures the host
// at that instant; many, spread over seconds, give a steadier median. All but the last stack are closed again; the last one
// serves the run.
func setUp(w *workload, p *population, prep *prepared, runDir string, minCycles int, setupFor time.Duration, tr *tracer) (*stack, []time.Duration, error) {
	var times []time.Duration
	begin := time.Now()
	for i := 0; ; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("cycle%d", i))
		if w.backend != memoryBackend {
			if err := copyDir(prep.template, filepath.Join(dir, "primary")); err != nil {
				return nil, nil, err
			}
		}
		// Each set-up starts from a collected heap instead of paying for
		// its predecessors' garbage.
		runtime.GC()
		t0 := time.Now()
		st, err := openStack(w, p, prep, dir, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
		if len(times) >= minCycles && time.Since(begin) >= setupFor {
			return st, times, nil
		}
		if err := st.close(); err != nil {
			return nil, nil, err
		}
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
