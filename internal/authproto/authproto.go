// Package authproto exposes the transport-agnostic authentication
// service (internal/authsvc) over the network: a length-prefixed JSON
// protocol on TCP, an equivalent net/http API, and TLS over either.
// The package owns only codecs and connection lifecycle — framing,
// parking, graceful drain; every decoded request flows through one
// shared authsvc pipeline (admission limiter, metrics, deadlines,
// panic containment), so all fronts compete for one concurrency
// budget and report into one set of counters.
//
// Wire format (TCP): each message is a 4-byte big-endian length
// followed by a JSON document, request/response in lockstep on one
// connection. Frames are capped at MaxFrame to bound allocation from
// untrusted peers. The package declares no message types of its own:
// both fronts decode a request straight into authsvc.Request (the
// HTTP front takes the op from the route), and both write every reply
// as authsvc.Response's fields plus the ok and locked flags that
// clients older than the code field read, through one wire struct.
// Clients decode replies into authsvc.Response.
package authproto

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/par"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// MaxFrame is the largest accepted wire frame in bytes.
const MaxFrame = 1 << 20

// DefaultMaxConns bounds the shared request-admission limiter and the
// per-Serve connection pool when the caller does not set a limit.
// Beyond it, work queues (HTTP requests block in admission, TCP peers
// wait in the kernel backlog) instead of spawning without bound.
const DefaultMaxConns = 1024

// DefaultRequestTimeout is the per-request handling deadline applied
// to requests that arrive without one.
const DefaultRequestTimeout = 30 * time.Second

// response is the wire shape of every reply a front writes, and the
// only place that shape lives: authsvc.Response plus the ok and locked
// flags that clients older than the code field read. The field order
// is the wire order. Clients decode replies straight into
// authsvc.Response, which ignores the two flags.
type response struct {
	V         int          `json:"v,omitempty"`
	OK        bool         `json:"ok"`
	Code      authsvc.Code `json:"code,omitempty"`
	Error     string       `json:"error,omitempty"`
	Locked    bool         `json:"locked,omitempty"`
	Remaining int          `json:"remaining,omitempty"`
	// The fields below are additive; each rides only with the code it
	// accompanies (see authsvc.Response).
	RetryAfterMs int    `json:"retry_after_ms,omitempty"`
	Primary      string `json:"primary,omitempty"`
	Token        string `json:"token,omitempty"`
	User         string `json:"user,omitempty"`
}

// wireResponse builds the wire reply for a service response.
func wireResponse(resp authsvc.Response) response {
	return response{
		V:            resp.Version,
		OK:           resp.OK(),
		Code:         resp.Code,
		Error:        resp.Err,
		Locked:       resp.Locked(),
		Remaining:    resp.Remaining,
		RetryAfterMs: resp.RetryAfterMs,
		Primary:      resp.Primary,
		Token:        resp.Token,
		User:         resp.User,
	}
}

// invalid is a front's own refusal of a request the service never
// sees.
func invalid(msg string) authsvc.Response {
	return authsvc.Response{Version: authsvc.Version, Code: authsvc.CodeInvalid, Err: msg}
}

// Server is the network front of the authentication service. The
// business rules live in authsvc.Service; Server adds the TCP codec
// (Serve/ServeTLS), the HTTP codec (HTTPHandler), connection
// lifecycle, and the shared middleware pipeline every front routes
// through. It is safe for concurrent use, and Shutdown drains
// in-flight connections gracefully.
type Server struct {
	svc        *authsvc.Service
	handler    authsvc.Handler
	metrics    *authsvc.Metrics
	limiter    *par.Limiter
	maxConns   int
	userRate   float64
	userBurst  int
	reqTimeout time.Duration
	overload   authsvc.OverloadPolicy
	session    authsvc.SessionTier
	logw       io.Writer

	// Operator-surface extensions (RegisterAdmin / RegisterMetrics),
	// applied when AdminHandler builds its mux.
	adminRoutes  map[string]http.Handler
	extraMetrics []func(io.Writer)

	connMu     sync.Mutex
	conns      map[net.Conn]*connState
	listeners  map[net.Listener]struct{}
	inShutdown atomic.Bool
}

// NewServer validates the configuration and returns a server. lockout
// <= 0 selects DefaultLockout. The store may be any vault.Store — the
// in-memory Sharded store or the durable one.
func NewServer(cfg passpoints.Config, v vault.Store, lockout int) (*Server, error) {
	svc, err := authsvc.NewService(cfg, v, lockout)
	if err != nil {
		return nil, err
	}
	s := &Server{
		svc:        svc,
		metrics:    &authsvc.Metrics{},
		maxConns:   DefaultMaxConns,
		reqTimeout: DefaultRequestTimeout,
		conns:      make(map[net.Conn]*connState),
		listeners:  make(map[net.Listener]struct{}),
	}
	// The lockout-crossing counter lives in the service core (only it
	// sees the threshold transition); surface it next to the
	// attacker-classification counters Metrics exports.
	s.RegisterMetrics(func(w io.Writer) {
		fmt.Fprintf(w, "# HELP authsvc_lockouts_triggered_total Failed attempts that crossed an account's lockout threshold.\n")
		fmt.Fprintf(w, "# TYPE authsvc_lockouts_triggered_total counter\n")
		fmt.Fprintf(w, "authsvc_lockouts_triggered_total %d\n", svc.LockoutsTriggered())
	})
	s.rebuild()
	return s, nil
}

// LockoutsTriggered exposes the service core's lockout-crossing
// counter — how many accounts attack traffic actually locked since
// startup.
func (s *Server) LockoutsTriggered() int64 { return s.svc.LockoutsTriggered() }

// rebuild recomposes the middleware pipeline. Configuration setters
// call it; they must run before the server starts serving.
func (s *Server) rebuild() {
	s.limiter = par.NewLimiter(s.maxConns)
	// Ordering, outermost first:
	//   - Metrics outside everything but Recover, so refused and
	//     throttled responses show up in authsvc_responses_total and
	//     latency is the client-observed number.
	//   - Log just inside Metrics: it installs the per-request
	//     annotation the overload stage fills in (queue wait,
	//     shed/deadline outcome) and emits one line per request with
	//     the final code.
	//   - Deadline outside admission, so the request timeout — clamped
	//     to the request's propagated budget — bounds *queueing* too: a
	//     request stuck behind a saturated limiter is refused with
	//     CodeUnavailable instead of parking its transport goroutine
	//     forever.
	//   - UserRate outside admission, so a flood aimed at one user is
	//     shed before it competes for the shared concurrency budget.
	//   - Overload owns the shared limiter: wait queue (unbounded
	//     when no policy is set), priority watermarks, fast
	//     CodeOverloaded sheds, and the in-flight gauge over the
	//     admitted requests, whose high-water mark is therefore
	//     provably capped by the limiter. A slow store call (pwserver's
	//     -chaos wraps the store in vault.Flaky) runs inside its slot,
	//     which is how a slow dependency starves a server and what the
	//     overload policy must absorb.
	mw := []authsvc.Middleware{
		authsvc.WithRecover(),
		authsvc.WithMetrics(s.metrics),
	}
	if s.logw != nil {
		mw = append(mw, authsvc.WithLog(s.logw))
	}
	if s.session != nil {
		// Session outside deadline/rate/admission: a validate is a
		// sub-microsecond in-memory check, so it is answered here —
		// counted and logged, but never queued behind hash-heavy work
		// or charged an admission slot. Login minting and revocation
		// ride the response path, after the inner pipeline has spoken.
		mw = append(mw, authsvc.WithSession(s.session))
	}
	mw = append(mw,
		authsvc.WithDeadline(s.reqTimeout),
		authsvc.WithUserRate(s.userRate, s.userBurst),
	)
	mw = append(mw, authsvc.WithOverload(s.limiter, s.overload, s.metrics))
	s.handler = authsvc.Chain(s.svc, mw...)
}

// SetMaxConns bounds both the shared request-admission limiter (all
// transports combined) and the per-Serve TCP connection pool (n <= 0
// restores DefaultMaxConns). Call before serving; the limits are read
// when serving starts.
func (s *Server) SetMaxConns(n int) {
	if n <= 0 {
		n = DefaultMaxConns
	}
	s.maxConns = n
	s.rebuild()
}

// SetUserRate enables per-user rate limiting across all transports:
// at most burst requests back to back per user, refilling at perSec
// per second. perSec <= 0 disables it (the default). Call before
// serving.
func (s *Server) SetUserRate(perSec float64, burst int) {
	s.userRate, s.userBurst = perSec, burst
	s.rebuild()
}

// SetOverload enables priority admission and load shedding: the
// shared limiter's wait queue is bounded at pol.Queue, low-priority
// work sheds at the policy's watermarks with fast CodeOverloaded
// responses, and requests that outlive their deadline in the queue
// are dropped before touching the vault. pol.Queue <= 0 queues
// without bound and sheds nothing. Call before serving.
func (s *Server) SetOverload(pol authsvc.OverloadPolicy) {
	s.overload = pol
	s.rebuild()
}

// SetSession mounts the stateless session tier (internal/session's
// Manager, or any authsvc.SessionTier) on the pipeline: successful
// logins mint tokens, OpValidate is answered from memory on both the
// TCP and HTTP fronts, and password changes, resets, and lockouts
// revoke the user's outstanding tokens. nil removes it. Call before
// serving.
func (s *Server) SetSession(tier authsvc.SessionTier) {
	s.session = tier
	s.rebuild()
}

// SetLogWriter enables the structured request log: one JSON line per
// request (id, op, user, code, latency, queue wait, shed/deadline
// outcome) written to w. nil disables it. Call before serving.
func (s *Server) SetLogWriter(w io.Writer) {
	s.logw = w
	s.rebuild()
}

// Metrics returns the server's shared metrics registry — request
// counts, latency, and the in-flight gauge across every transport.
func (s *Server) Metrics() *authsvc.Metrics { return s.metrics }

// Handle executes one request through the full pipeline in process.
// It serves every op, the administrative reset included, so it is for
// tests and trusted in-process callers, never a network peer.
func (s *Server) Handle(req authsvc.Request) authsvc.Response {
	return s.handler.Handle(context.Background(), req)
}

// ErrServerClosed is returned by Serve on a server whose Shutdown has
// been initiated — the analogue of http.ErrServerClosed. A Serve loop
// already running when Shutdown begins still returns nil once its
// listener closes and its connections drain.
var ErrServerClosed = errors.New("authproto: server closed")

// Serve accepts connections until the listener is closed, dispatching
// each one to a bounded worker pool of at most SetMaxConns concurrent
// handlers. Each connection carries a sequence of request/response
// frames; each decoded frame is admitted through the server's shared
// request limiter before it is handled, so TCP and HTTP traffic
// together never exceed one concurrency budget. Serve returns only
// after every admitted connection has drained. Closing the listener
// alone stops admission but lets idle peers park until IdleTimeout
// expires; call Shutdown for a prompt drain — it also closes the
// listener, and additionally nudges idle connections so Serve returns
// within milliseconds of the last in-flight request.
func (s *Server) Serve(l net.Listener) error {
	// Registration and the shutdown flag are checked under one lock, so
	// a Serve racing a Shutdown either registers in time to have its
	// listener closed, or is refused — never left accepting on a port
	// Shutdown no longer knows about.
	if !s.registerListener(l) {
		return ErrServerClosed
	}
	defer s.unregisterListener(l)
	lim := par.NewLimiter(s.maxConns)
	defer lim.Drain()
	var acceptDelay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if !transientAcceptError(err) {
				return err
			}
			// Transient accept failure (EMFILE under descriptor
			// exhaustion, aborted handshakes, timeouts): hot-looping
			// here would burn a core re-hitting the same condition and,
			// for EMFILE, prevent the descriptors we are waiting on from
			// ever draining. Back off exponentially with jitter —
			// doubling to a 1s cap, desynchronized so multiple accept
			// loops (TCP + TLS) do not retry in lockstep.
			if acceptDelay == 0 {
				acceptDelay = 5 * time.Millisecond
			} else if acceptDelay *= 2; acceptDelay > time.Second {
				acceptDelay = time.Second
			}
			time.Sleep(acceptDelay/2 + rand.N(acceptDelay/2))
			continue
		}
		acceptDelay = 0
		// Track before the shutdown check: once a connection is in
		// s.conns, Shutdown cannot report "drained" without either
		// waiting for it or (below) seeing it refused. The flag is read
		// after tracking, so every ordering lands in one of those two
		// cases.
		st := &connState{}
		s.trackConn(conn, st)
		if s.inShutdown.Load() {
			s.untrackConn(conn)
			conn.Close()
			// A Shutdown is in flight: stop accepting and close the
			// listener ourselves — the deferred unregister could
			// otherwise race ahead of Shutdown's close loop and leave
			// the port open with nobody accepting. This is a loop that
			// was running when Shutdown began, so it returns nil like
			// any other cleanly shut-down Serve.
			_ = l.Close()
			return nil
		}
		// Acquire blocks when maxConns handlers are in flight; further
		// peers wait in the accept queue — bounded workers, kernel-side
		// backpressure. The worker owns the conn's tracking lifetime;
		// serveConnState itself does none (it can be driven directly
		// over a net.Pipe in tests).
		lim.Go(func() {
			defer s.untrackConn(conn)
			s.serveConnState(conn, st)
		})
	}
}

// transientAcceptError classifies accept failures worth retrying
// with backoff: descriptor exhaustion (EMFILE/ENFILE), kernel buffer
// pressure (ENOBUFS/ENOMEM), handshakes the peer aborted before we
// got to them (ECONNABORTED/ECONNRESET), interrupted syscalls, and
// net.Error timeouts. Anything else (a closed or broken listener) is
// fatal to the accept loop.
func transientAcceptError(err error) bool {
	for _, errno := range []syscall.Errno{
		syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM,
		syscall.ECONNABORTED, syscall.ECONNRESET, syscall.EINTR,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Shutdown gracefully stops the server: new connections are refused,
// idle connections are closed, and in-flight requests get to finish
// and write their response before their connection is torn down. It
// returns nil once every connection has drained, or ctx.Err() if the
// context expires first (remaining connections are then closed hard).
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.connMu.Lock()
	for l := range s.listeners {
		_ = l.Close()
	}
	s.connMu.Unlock()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.connMu.Lock()
		n := len(s.conns)
		// Nudge blocked readers — but only connections parked *between*
		// requests (waiting for a frame's length prefix). A connection
		// mid-frame or mid-handler keeps its deadline and finishes its
		// request/response exchange, honoring the drain contract.
		// Re-arm every tick in case a handler re-parked after a late
		// response (serveConnState exits on the shutdown flag, so this
		// is belt and braces).
		for c, st := range s.conns {
			st.nudgeIfIdle(c)
		}
		s.connMu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			s.connMu.Lock()
			for c := range s.conns {
				_ = c.Close()
			}
			s.connMu.Unlock()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// registerListener adds l to the shutdown-controlled set; it refuses
// (returns false) on a server whose Shutdown has begun. The flag is
// read under connMu — the same lock Shutdown holds while closing
// listeners — so registration and shutdown cannot interleave.
func (s *Server) registerListener(l net.Listener) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.inShutdown.Load() {
		return false
	}
	s.listeners[l] = struct{}{}
	return true
}

func (s *Server) unregisterListener(l net.Listener) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.listeners, l)
}

func (s *Server) trackConn(c net.Conn, st *connState) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.conns[c] = st
}

func (s *Server) untrackConn(c net.Conn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, c)
}

// IdleTimeout is how long a connection may sit between requests.
const IdleTimeout = 2 * time.Minute

// bodyTimeout bounds reading one frame's body once its length prefix
// has arrived — generous for a slow link pushing a MaxFrame payload,
// small enough that a stalled peer cannot pin a drain for long (a
// Shutdown past its context hard-closes regardless).
const bodyTimeout = 30 * time.Second

// connState is the per-connection handshake between the serving loop
// and Shutdown's nudger: idle means "parked waiting for the next
// request's length prefix", the only phase a drain may interrupt. The
// mutex makes phase transitions and deadline writes atomic, so a
// nudge can never clobber the fresh deadline of a connection that
// just started a frame body.
type connState struct {
	mu   sync.Mutex
	idle bool
}

// park enters the idle phase under the idle deadline.
func (st *connState) park(conn net.Conn) {
	st.mu.Lock()
	st.idle = true
	_ = conn.SetReadDeadline(time.Now().Add(IdleTimeout))
	st.mu.Unlock()
}

// resume leaves the idle phase and arms the body deadline.
func (st *connState) resume(conn net.Conn) {
	st.mu.Lock()
	st.idle = false
	_ = conn.SetReadDeadline(time.Now().Add(bodyTimeout))
	st.mu.Unlock()
}

// nudgeIfIdle expires the read deadline of a parked connection so its
// blocked prefix read fails immediately; mid-frame connections are
// left alone.
func (st *connState) nudgeIfIdle(conn net.Conn) {
	st.mu.Lock()
	if st.idle {
		_ = conn.SetReadDeadline(time.Now())
	}
	st.mu.Unlock()
}

// serveConn serves one connection with standalone state — the entry
// point for driving a connection outside a Serve accept loop (tests,
// net.Pipe).
func (s *Server) serveConn(conn net.Conn) {
	s.serveConnState(conn, &connState{})
}

func (s *Server) serveConnState(conn net.Conn, st *connState) {
	defer conn.Close()
	for {
		st.park(conn)
		n, err := readPrefix(conn)
		if err != nil {
			return // EOF, idle timeout, shutdown nudge, or bad size
		}
		st.resume(conn)
		var req authsvc.Request
		if err := readBody(conn, n, &req); err != nil {
			return // timeout or malformed frame: drop the peer
		}
		var resp authsvc.Response
		if req.Op == authsvc.OpReset {
			// The administrative reset must not ride the public TCP
			// front: an online guesser could otherwise clear its own
			// failure counter and defeat the §5.1 lockout. Admin paths
			// are the in-process Handle and the HTTP AdminHandler.
			resp = invalid("reset is admin-only; not served on this front")
		} else {
			resp = s.handler.Handle(context.Background(), req)
		}
		_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := writeFrame(conn, wireResponse(resp)); err != nil {
			return
		}
		if s.inShutdown.Load() {
			return // drained: last response written, close gracefully
		}
	}
}

// readPrefix reads and validates a frame's 4-byte length prefix.
func readPrefix(r io.Reader) (uint32, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > MaxFrame {
		return 0, fmt.Errorf("authproto: frame size %d out of range", n)
	}
	return n, nil
}

// readBody reads an n-byte frame body and decodes it into v.
func readBody(r io.Reader, n uint32, v interface{}) error {
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	return json.Unmarshal(buf, v)
}

func readFrame(r io.Reader, v interface{}) error {
	n, err := readPrefix(r)
	if err != nil {
		return err
	}
	return readBody(r, n, v)
}

func writeFrame(w io.Writer, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(data) > MaxFrame {
		return fmt.Errorf("authproto: frame too large (%d bytes)", len(data))
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(data)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
