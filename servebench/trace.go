package main

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/session"
	"clickpass/internal/vault"
)

// The tracer times each layer from outside, by wrapping the interface
// the layer above calls it through: the listener (framed TCP) or the
// HTTP handler (authproto), the core.Scheme in passpoints.Config
// (core), the vault.Store and the session tier's session.KV (vault),
// and the authsvc.SessionTier (session). authsvc's own pipeline time
// comes from the server's metrics registry. Nothing inside the program
// changes.
//
// Store, KV, session and transport calls are spans linked to the
// request in flight. These calls carry no context, and reading a
// goroutine's id costs microseconds here, so a span is linked by the
// account it names instead: every account is pinned to one client
// connection (connFor), and each connection has one request in flight.
// Scheme calls name no account and last tens of nanoseconds; they are
// only counted and timed per layer.
//
// Recording is switched by on, so a traced run can alternate traced
// and untraced windows and measure what tracing costs.
type tracer struct {
	on    atomic.Bool
	cur   [conns]atomic.Int64 // request in flight on each client connection
	epoch time.Time

	ops    [numOps]opStat
	nested atomic.Int64 // store time spent inside session calls

	mu     sync.Mutex
	spans  []span
	remote map[string]int // HTTP client address -> client connection
}

// maxSpans bounds the memory linked spans may take (32 bytes each).
const maxSpans = 1 << 20

type op int

const (
	opServer op = iota
	opLocate
	opEnroll
	opGet
	opPut
	opReplace
	opDelete
	opSetLockout
	opSetKV
	opMint
	opValidate
	opRevoke
	numOps
)

var opNames = [numOps]string{
	"authproto.server", "core.locate", "core.enroll",
	"vault.get", "vault.put", "vault.replace", "vault.delete", "vault.setlockout", "vault.setkv",
	"session.mint", "session.validate", "session.revoke",
}

type layer int

const (
	layerAuthproto layer = iota
	layerCore
	layerVault
	layerSession
)

func (o op) layer() layer {
	switch {
	case o == opServer:
		return layerAuthproto
	case o <= opEnroll:
		return layerCore
	case o <= opSetKV:
		return layerVault
	default:
		return layerSession
	}
}

type opStat struct {
	calls atomic.Int64
	total atomic.Int64 // nanoseconds
}

// span is one linked call: the request it served (-1 if unknown), the
// operation, and its start and duration in nanoseconds since epoch.
type span struct {
	req   int64
	op    op
	start int64
	dur   int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), remote: make(map[string]int)}
}

// begin marks request id as in flight on client connection c.
func (t *tracer) begin(c int, id int64) { t.cur[c].Store(id) }

// reqFor returns the request in flight for user's connection.
func (t *tracer) reqFor(user string) int64 {
	if user == "" {
		return -1
	}
	return t.cur[connFor(user)].Load()
}

// record adds one timed call; linked calls also keep their span.
func (t *tracer) record(o op, req int64, start time.Time, d time.Duration) {
	s := &t.ops[o]
	s.calls.Add(1)
	s.total.Add(int64(d))
	if o.layer() == layerCore {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{req: req, op: o, start: int64(start.Sub(t.epoch)), dur: int64(d)})
	}
	t.mu.Unlock()
}

// totals is a snapshot of the per-op counters.
type totals struct {
	calls  [numOps]int64
	total  [numOps]int64
	nested int64
}

func (t *tracer) totals() totals {
	var s totals
	for o := range t.ops {
		s.calls[o] = t.ops[o].calls.Load()
		s.total[o] = t.ops[o].total.Load()
	}
	s.nested = t.nested.Load()
	return s
}

func (a totals) sub(b totals) totals {
	for o := range a.calls {
		a.calls[o] -= b.calls[o]
		a.total[o] -= b.total[o]
	}
	a.nested -= b.nested
	return a
}

func (a totals) add(b totals) totals {
	for o := range a.calls {
		a.calls[o] += b.calls[o]
		a.total[o] += b.total[o]
	}
	a.nested += b.nested
	return a
}

// layerTotal sums the time of every op of layer l, in nanoseconds.
func (a totals) layerTotal(l layer) (calls, ns int64) {
	for o := op(0); o < numOps; o++ {
		if o.layer() == l {
			calls += a.calls[o]
			ns += a.total[o]
		}
	}
	return calls, ns
}

// scheme wraps the discretization scheme passpoints calls.
func (t *tracer) scheme(s core.Scheme) core.Scheme { return &tracedScheme{Scheme: s, t: t} }

type tracedScheme struct {
	core.Scheme
	t *tracer
}

func (s *tracedScheme) Locate(p geom.Point, c core.Clear) core.Secret {
	if !s.t.on.Load() {
		return s.Scheme.Locate(p, c)
	}
	t0 := time.Now()
	sec := s.Scheme.Locate(p, c)
	s.t.record(opLocate, -1, t0, time.Since(t0))
	return sec
}

func (s *tracedScheme) Enroll(p geom.Point) core.Token {
	if !s.t.on.Load() {
		return s.Scheme.Enroll(p)
	}
	t0 := time.Now()
	tok := s.Scheme.Enroll(p)
	s.t.record(opEnroll, -1, t0, time.Since(t0))
	return tok
}

// store wraps the vault the service calls. authsvc.NewService
// type-asserts its store for vault.LockoutStore, and pwserver hands the
// same value to the session tier as its KV, so a durable store's
// wrapper keeps both extensions.
func (t *tracer) store(s vault.Store) (vault.Store, error) {
	base := &tracedStore{Store: s, t: t}
	locks, isLock := s.(vault.LockoutStore)
	kv, isKV := s.(vault.KVStore)
	switch {
	case isLock && isKV:
		return &tracedDurableStore{tracedStore: base, locks: locks, kv: kv}, nil
	case !isLock && !isKV:
		return base, nil
	}
	return nil, fmt.Errorf("tracer: cannot wrap store %T", s)
}

type tracedStore struct {
	vault.Store
	t *tracer
}

// start returns when a call starts, or the zero time when tracing is
// off; end records the call as op o linked to user's request.
func (t *tracer) start() time.Time {
	if !t.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(o op, user string, t0 time.Time) {
	if !t0.IsZero() {
		t.record(o, t.reqFor(user), t0, time.Since(t0))
	}
}

func (s *tracedStore) Get(user string) (*passpoints.Record, error) {
	defer s.t.end(opGet, user, s.t.start())
	return s.Store.Get(user)
}

func (s *tracedStore) Put(rec *passpoints.Record) error {
	defer s.t.end(opPut, rec.User, s.t.start())
	return s.Store.Put(rec)
}

func (s *tracedStore) Replace(rec *passpoints.Record) error {
	defer s.t.end(opReplace, rec.User, s.t.start())
	return s.Store.Replace(rec)
}

func (s *tracedStore) Delete(user string) {
	defer s.t.end(opDelete, user, s.t.start())
	s.Store.Delete(user)
}

type tracedDurableStore struct {
	*tracedStore
	locks vault.LockoutStore
	kv    vault.KVStore
}

func (s *tracedDurableStore) SetLockout(user string, failures int) error {
	defer s.t.end(opSetLockout, user, s.t.start())
	return s.locks.SetLockout(user, failures)
}

func (s *tracedDurableStore) Lockouts() map[string]int { return s.locks.Lockouts() }

func (s *tracedDurableStore) SetKV(key string, val []byte) error {
	defer s.t.end(opSetKV, kvUser(key), s.t.start())
	return s.kv.SetKV(key, val)
}

func (s *tracedDurableStore) GetKV(key string) ([]byte, bool) { return s.kv.GetKV(key) }

func (s *tracedDurableStore) KVRange(prefix string) map[string][]byte { return s.kv.KVRange(prefix) }

func (s *tracedDurableStore) SetKVWatch(fn func(key string, val []byte)) { s.kv.SetKVWatch(fn) }

// kvUser returns the account a session side-table key belongs to
// (revocation watermarks are keyed session/rev/<user>).
func kvUser(key string) string {
	user, ok := strings.CutPrefix(key, "session/rev/")
	if !ok {
		return ""
	}
	return user
}

// kv wraps the side table the session tier persists through. Its
// writes happen inside session calls, so their time is also kept apart
// (nested) to keep it out of the session layer's own time.
func (t *tracer) kv(kv session.KV) session.KV { return &tracedKV{KV: kv, t: t} }

type tracedKV struct {
	session.KV
	t *tracer
}

func (k *tracedKV) SetKV(key string, val []byte) error {
	if !k.t.on.Load() {
		return k.KV.SetKV(key, val)
	}
	t0 := time.Now()
	err := k.KV.SetKV(key, val)
	d := time.Since(t0)
	k.t.record(opSetKV, k.t.reqFor(kvUser(key)), t0, d)
	k.t.nested.Add(int64(d))
	return err
}

// session wraps the session tier the pipeline mints, checks and
// revokes tokens through.
func (t *tracer) session(s authsvc.SessionTier) authsvc.SessionTier {
	return &tracedSession{inner: s, t: t}
}

type tracedSession struct {
	inner authsvc.SessionTier
	t     *tracer
}

func (s *tracedSession) Mint(user string) (string, error) {
	defer s.t.end(opMint, user, s.t.start())
	return s.inner.Mint(user)
}

func (s *tracedSession) Validate(token string) (string, error) {
	if !s.t.on.Load() {
		return s.inner.Validate(token)
	}
	t0 := time.Now()
	user, err := s.inner.Validate(token)
	s.t.record(opValidate, s.t.reqFor(user), t0, time.Since(t0))
	return user, err
}

func (s *tracedSession) Revoke(user string) error {
	defer s.t.end(opRevoke, user, s.t.start())
	return s.inner.Revoke(user)
}

// listener numbers accepted connections in accept order, which is
// client order (see openStack). Framed-TCP connections are wrapped to
// time each request from its first byte in to its last byte out; HTTP
// connections are not, since the handler span covers an HTTP request.
func (t *tracer) listener(l net.Listener, framed bool) net.Listener {
	return &tracedListener{Listener: l, t: t, framed: framed}
}

type tracedListener struct {
	net.Listener
	t      *tracer
	framed bool
	n      int
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	idx := l.n % conns
	l.n++
	if l.framed {
		return &tracedConn{Conn: c, t: l.t, idx: idx}, nil
	}
	l.t.mu.Lock()
	l.t.remote[c.RemoteAddr().String()] = idx
	l.t.mu.Unlock()
	return c, nil
}

// tracedConn sees one server connection's reads and writes, all on the
// goroutine serving it. A request starts with the first byte read
// while idle and ends with its response, which authproto writes as a
// length prefix and a body: two writes.
type tracedConn struct {
	net.Conn
	t      *tracer
	idx    int
	busy   bool
	traced bool
	writes int
	start  time.Time
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && !c.busy {
		c.busy, c.writes = true, 0
		if c.traced = c.t.on.Load(); c.traced {
			c.start = time.Now()
		}
	}
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.busy {
		if c.writes++; c.writes == 2 {
			c.busy = false
			if c.traced {
				c.t.record(opServer, c.t.cur[c.idx].Load(), c.start, time.Since(c.start))
			}
		}
	}
	return n, err
}

// handler wraps the HTTP front: its span is the server side of an
// HTTP request.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		t.mu.Lock()
		idx, ok := t.remote[r.RemoteAddr]
		t.mu.Unlock()
		req := int64(-1)
		if ok {
			req = t.cur[idx].Load()
		}
		t.record(opServer, req, t0, d)
	})
}

// opSummary is one row of the trace file's per-operation table.
type opSummary struct {
	Op          string  `json:"op"`
	Calls       int64   `json:"calls"`
	CallsPerReq float64 `json:"calls_per_req"`
	MeanUs      float64 `json:"mean_us"`
	P50Us       float64 `json:"p50_us,omitempty"`
	P99Us       float64 `json:"p99_us,omitempty"`
}

// summarize builds the per-operation table over tr totals, with
// percentiles from the linked spans of the traced windows.
func (t *tracer) summarize(tot totals, requests int64) []opSummary {
	t.mu.Lock()
	durs := make([][]float64, numOps)
	for _, s := range t.spans {
		durs[s.op] = append(durs[s.op], float64(s.dur)/1e3)
	}
	t.mu.Unlock()
	var rows []opSummary
	for o := op(0); o < numOps; o++ {
		if tot.calls[o] == 0 {
			continue
		}
		row := opSummary{
			Op:          opNames[o],
			Calls:       tot.calls[o],
			CallsPerReq: float64(tot.calls[o]) / float64(max(requests, 1)),
			MeanUs:      float64(tot.total[o]) / float64(tot.calls[o]) / 1e3,
		}
		if d := durs[o]; len(d) > 0 {
			sort.Float64s(d)
			row.P50Us, row.P99Us = percentile(d, 0.50), percentile(d, 0.99)
		}
		rows = append(rows, row)
	}
	return rows
}

// requestTree is one request's linked spans, for the trace file.
type requestTree struct {
	Req   int64       `json:"req"`
	Spans []spanEntry `json:"spans"`
}

type spanEntry struct {
	Op      string  `json:"op"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// trees groups the linked spans of the first n traced requests.
func (t *tracer) trees(n int) []requestTree {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := make(map[int64][]spanEntry)
	var order []int64
	for _, s := range t.spans {
		if s.req < 0 {
			continue
		}
		if _, seen := byReq[s.req]; !seen {
			if len(order) == n {
				continue
			}
			order = append(order, s.req)
		}
		byReq[s.req] = append(byReq[s.req], spanEntry{Op: opNames[s.op], StartUs: float64(s.start) / 1e3, DurUs: float64(s.dur) / 1e3})
	}
	out := make([]requestTree, 0, len(order))
	for _, r := range order {
		spans := byReq[r]
		sort.Slice(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
		out = append(out, requestTree{Req: r, Spans: spans})
	}
	return out
}
