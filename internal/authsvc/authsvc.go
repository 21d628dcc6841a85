// Package authsvc is the transport-agnostic core of the PassPoints
// authentication service. It owns the business rules — enroll, login,
// change, administrative reset, and the per-account failed-attempt
// lockout of §5.1 — behind a single Handle(ctx, Request) Response
// entry point over versioned, typed request/response values.
//
// Transports (the framed-TCP codec, the HTTP/JSON mux, TLS — all in
// internal/authproto) are thin codecs over this package: they decode
// bytes into a Request, call one shared Handler, and encode the
// Response back out. Cross-cutting concerns — admission through a
// shared par.Limiter, per-user rate limiting, deadline propagation,
// panic containment, metrics — compose as Middleware around the
// Service, so every front end shares one pipeline, one concurrency
// limit, and one set of counters.
package authsvc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// Version is the current wire-type version. Requests that do not carry
// an explicit version (legacy frames) are interpreted as version 1;
// requests from the future are refused with CodeInvalid rather than
// half-understood.
const Version = 1

// Op identifies a request type.
type Op string

// Service operations.
const (
	OpPing   Op = "ping"
	OpEnroll Op = "enroll"
	OpLogin  Op = "login"
	OpChange Op = "change" // replace the password after verifying the old one
	OpReset  Op = "reset"  // administrative: clear an account's lockout
	// OpValidate checks a session token minted by a successful login.
	// It is answered entirely by the WithSession middleware — a
	// signature check against in-memory keys, zero store calls — and
	// never reaches the Service; a server with no session tier refuses
	// it with CodeInvalid. Additive: legacy servers answer it as an
	// unknown op, which also reads as CodeInvalid.
	OpValidate Op = "validate"
)

// Request is one versioned service request. The zero Version means
// "version 1" so that legacy clients that never learned the field keep
// working unchanged.
type Request struct {
	Version   int             `json:"v,omitempty"`
	Op        Op              `json:"op"`
	User      string          `json:"user,omitempty"`
	Clicks    []dataset.Click `json:"clicks,omitempty"`
	NewClicks []dataset.Click `json:"new_clicks,omitempty"`
	// BudgetMs is the client's end-to-end deadline budget in
	// milliseconds — how long the client is still willing to wait,
	// queueing included. Additive (zero = no budget, legacy clients
	// never send it); WithDeadline clamps the server deadline to it, so
	// a request that burned its budget waiting for an admission slot is
	// dropped before it touches the vault instead of being served late
	// to a caller that already gave up.
	BudgetMs int `json:"budget_ms,omitempty"`
	// Token carries the session token for OpValidate. Additive; only
	// session-aware clients send it.
	Token string `json:"token,omitempty"`
}

// Code is the typed outcome of a request — the enum that replaces the
// stringly OK/Locked flags the wire protocol grew up with. Transports
// map codes to their local idiom (HTTP status, TCP response flags);
// the strings themselves are wire-stable.
type Code string

// Response codes.
const (
	// CodeOK: the request succeeded.
	CodeOK Code = "ok"
	// CodeDenied: authentication failed (wrong password — or an
	// unknown user, deliberately indistinguishable).
	CodeDenied Code = "denied"
	// CodeLocked: the account is locked out (§5.1 online-attack
	// defense); an administrative reset is required.
	CodeLocked Code = "locked"
	// CodeThrottled: the per-user rate limit rejected the request.
	CodeThrottled Code = "throttled"
	// CodeExists: enrollment refused because the user already exists.
	CodeExists Code = "exists"
	// CodeInvalid: the request is malformed (unknown op, missing user,
	// bad click geometry, unsupported version).
	CodeInvalid Code = "invalid"
	// CodeUnavailable: the service could not take the request in time
	// (admission timed out, deadline expired, shutting down).
	CodeUnavailable Code = "unavailable"
	// CodeOverloaded: the request was shed by the overload policy —
	// the admission wait queue crossed this priority's watermark, so
	// the server refused fast (sub-millisecond) rather than queueing
	// work it would eventually deadline. The response's RetryAfterMs
	// (Retry-After on HTTP) hints when to try again; retrying clients
	// must back off with jitter.
	CodeOverloaded Code = "overloaded"
	// CodeNotPrimary: this replica cannot serve the request — it is a
	// follower (or a fenced ex-primary) in a replicated vault pair.
	// The response's Primary field carries the advertised address of
	// the node that can; clients should redirect there and resend.
	// The request provably never executed: the role guard sits in
	// front of the store, so a not_primary refusal is always safe to
	// replay, idempotent or not.
	CodeNotPrimary Code = "not_primary"
	// CodeInternal: the service itself failed (storage error, panic).
	CodeInternal Code = "internal"
)

// Response is one versioned service response.
type Response struct {
	Version int    `json:"v,omitempty"`
	Code    Code   `json:"code"`
	Err     string `json:"error,omitempty"`
	// Remaining is the failed-login budget left for the account: on a
	// failure, how many attempts remain before lockout; on a
	// successful login, the full budget.
	Remaining int `json:"remaining,omitempty"`
	// RetryAfterMs accompanies CodeOverloaded: the server's hint, in
	// milliseconds, for when a retry has a chance of being admitted.
	// HTTP transports also surface it as a Retry-After header.
	RetryAfterMs int `json:"retry_after_ms,omitempty"`
	// Primary accompanies CodeNotPrimary: the advertised address of
	// the replica that can serve writes, empty if unknown.
	Primary string `json:"primary,omitempty"`
	// Token accompanies a successful login on a session-enabled
	// server: the signed session token the client presents to
	// OpValidate instead of re-running the full click-sequence verify.
	// Additive; legacy servers never send it.
	Token string `json:"token,omitempty"`
	// User accompanies a successful OpValidate: the account the token
	// names. Additive.
	User string `json:"user,omitempty"`
}

// OK reports whether the request succeeded.
func (r Response) OK() bool { return r.Code == CodeOK }

// Locked reports whether the account is locked out.
func (r Response) Locked() bool { return r.Code == CodeLocked }

// Handler executes one request. Implementations must be safe for
// concurrent use; ctx carries the request deadline and cancellation
// from whatever transport accepted it.
type Handler interface {
	Handle(ctx context.Context, req Request) Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, req Request) Response

// Handle calls f.
func (f HandlerFunc) Handle(ctx context.Context, req Request) Response { return f(ctx, req) }

// Middleware wraps a Handler with one cross-cutting concern.
type Middleware func(Handler) Handler

// Chain composes middleware around h: the first element is outermost,
// so Chain(h, a, b) handles a request as a(b(h)).
func Chain(h Handler, mw ...Middleware) Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// Service is the stateful core: a vault.Store of enrolled records plus
// the per-account failed-attempt counters. It implements Handler and
// is safe for concurrent use. When the store also implements
// vault.LockoutStore (the durable backend does), every counter change
// is written through to it and loaded back at the first record read
// the store serves, so neither a restart nor a failover hands an
// online attacker a fresh budget. A replicated store serves record
// reads only on an unfenced primary: a follower checks no credential
// (login, change and reset answer CodeNotPrimary), and once promoted
// it loads exactly the counters its log holds.
type Service struct {
	cfg     passpoints.Config
	store   vault.Store
	locks   vault.LockoutStore // store's lockout extension, or nil
	lockout int
	// dummy is a throwaway record verified against on unknown-user
	// logins, so that path costs the same hash work as a wrong
	// password and cannot be used as a timing oracle for user
	// enumeration.
	dummy *passpoints.Record

	mu       sync.Mutex
	failures map[string]int
	// loaded reports that failures holds the store's counters; see
	// loadLockouts.
	loaded bool

	// lockouts counts threshold crossings: the failed attempt that
	// moved an account from open to locked. Refusals of an
	// already-locked account are counted by Metrics.LockedRefusals;
	// this counter answers "how many accounts did attack traffic
	// actually lock" — the server-side echo of the red-team harness's
	// per-account budget exhaustion.
	lockouts atomic.Int64
}

// DefaultLockout is the failed-attempt budget per account.
const DefaultLockout = 10

// NewService validates the configuration and returns the service
// core. lockout <= 0 selects DefaultLockout. The store may be any
// vault.Store — the in-memory Sharded store or the durable one.
func NewService(cfg passpoints.Config, store vault.Store, lockout int) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("authsvc: nil store")
	}
	if lockout <= 0 {
		lockout = DefaultLockout
	}
	dummy, err := passpoints.Enroll(cfg, "\x00dummy", dummyClicks(cfg))
	if err != nil {
		return nil, fmt.Errorf("authsvc: building dummy record: %w", err)
	}
	s := &Service{
		cfg:      cfg,
		store:    store,
		lockout:  lockout,
		dummy:    dummy,
		failures: make(map[string]int),
	}
	s.locks, _ = store.(vault.LockoutStore)
	return s, nil
}

// loadLockouts adopts the store's persisted counters, full lockouts
// included. login calls it with s.mu held at the first record read the
// store serves, before anything is counted, so it overwrites no
// failure.
func (s *Service) loadLockouts() {
	s.loaded = true
	if s.locks == nil {
		return
	}
	for user, n := range s.locks.Lockouts() {
		if n > 0 {
			s.failures[user] = n
		}
	}
}

// persistLockout writes user's counter through the store's lockout
// extension, if any. Always called after s.mu has been released —
// the write may be a disk flush, and the tradeoff is documented at
// the call site in fail. A storage error is logged and otherwise
// ignored: refusing logins because a counter could not be journaled
// would turn a disk hiccup into an outage, and the in-memory counter
// still protects this process's lifetime.
func (s *Service) persistLockout(user string, failures int) {
	if s.locks == nil {
		return
	}
	if err := s.locks.SetLockout(user, failures); err != nil {
		log.Printf("authsvc: persisting lockout for %q: %v", user, err)
	}
}

// dummyClicks spreads cfg.Clicks deterministic points across the image
// for the timing-equalization record.
func dummyClicks(cfg passpoints.Config) []geom.Point {
	pts := make([]geom.Point, cfg.Clicks)
	for i := range pts {
		pts[i] = geom.Pt((i*71+13)%cfg.Image.W, (i*53+29)%cfg.Image.H)
	}
	return pts
}

// Lockout returns the configured failed-attempt budget.
func (s *Service) Lockout() int { return s.lockout }

// Handle executes one request against the store. It implements
// Handler and is the innermost stage of every transport's pipeline.
func (s *Service) Handle(ctx context.Context, req Request) Response {
	if req.Version > Version {
		return Response{Version: Version, Code: CodeInvalid,
			Err: fmt.Sprintf("unsupported version %d", req.Version)}
	}
	if err := ctx.Err(); err != nil {
		return Response{Version: Version, Code: CodeUnavailable, Err: "deadline exceeded"}
	}
	switch req.Op {
	case OpPing:
		return Response{Version: Version, Code: CodeOK}
	case OpEnroll:
		return s.enroll(ctx, req)
	case OpLogin:
		return s.login(ctx, req)
	case OpChange:
		return s.change(ctx, req)
	case OpReset:
		return s.reset(req)
	case OpValidate:
		// WithSession answers this before it ever reaches the Service;
		// getting here means the server has no session tier.
		return Response{Version: Version, Code: CodeInvalid,
			Err: "session validation not enabled on this server"}
	default:
		return Response{Version: Version, Code: CodeInvalid,
			Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// storeFailure is the response to a failed store call: a replicated
// store's role refusal becomes CodeNotPrimary, carrying the redirect
// address when the store knows one, and any other error CodeInternal
// with msg.
func storeFailure(err error, msg string) Response {
	var npe *vault.NotPrimaryError
	if errors.As(err, &npe) {
		return Response{Version: Version, Code: CodeNotPrimary,
			Err: "not the primary replica", Primary: npe.Primary}
	}
	return Response{Version: Version, Code: CodeInternal, Err: msg}
}

func (s *Service) enroll(ctx context.Context, req Request) Response {
	if req.User == "" {
		return Response{Version: Version, Code: CodeInvalid, Err: "user required"}
	}
	if resp, expired := deadlineCheck(ctx); expired {
		return resp
	}
	rec, err := passpoints.Enroll(s.cfg, req.User, clicksToPoints(req.Clicks))
	if err != nil {
		return Response{Version: Version, Code: CodeInvalid, Err: err.Error()}
	}
	if err := s.store.Put(rec); err != nil {
		if errors.Is(err, vault.ErrExists) {
			return Response{Version: Version, Code: CodeExists, Err: "user already enrolled"}
		}
		return storeFailure(err, err.Error())
	}
	return Response{Version: Version, Code: CodeOK}
}

// login authenticates one attempt. Unknown users and wrong passwords
// share the failure path end to end: both consume a lockout attempt,
// both return byte-identical responses, and both perform one full
// digest comparison — the unknown-user branch against the dummy
// record — so response timing does not reveal which names exist.
func (s *Service) login(ctx context.Context, req Request) Response {
	if req.User == "" {
		return Response{Version: Version, Code: CodeInvalid, Err: "user required"}
	}
	if resp, expired := deadlineCheck(ctx); expired {
		return resp
	}
	rec, err := s.store.Get(req.User)
	missing := errors.Is(err, vault.ErrNotFound)
	if err != nil && !missing {
		// A storage fault is not a wrong password: it must neither leak
		// an attempt from the account's lockout budget nor (under a
		// flaky store) deny a correct credential as if it were guessed
		// wrong. Only ErrNotFound rides the indistinguishable fail path
		// below; infrastructure errors surface as CodeInternal — except
		// a replica's role refusal (a follower, or a fenced
		// ex-primary), which redirects the client to the primary
		// before any counter is consulted.
		return storeFailure(err, "storage error")
	}
	s.mu.Lock()
	if !s.loaded {
		s.loadLockouts()
	}
	failed := s.failures[req.User]
	s.mu.Unlock()
	if failed >= s.lockout {
		return Response{Version: Version, Code: CodeLocked, Err: "account locked"}
	}
	if missing {
		// Equivalent work to the known-user path: a real hash compare,
		// discarded. The response is built by the same fail() as a
		// wrong password.
		_, _ = passpoints.Verify(s.cfg, s.dummy, clicksToPoints(req.Clicks))
		return s.fail(req.User)
	}
	ok, err := passpoints.Verify(s.cfg, rec, clicksToPoints(req.Clicks))
	if err != nil || !ok {
		return s.fail(req.User)
	}
	s.mu.Lock()
	_, tracked := s.failures[req.User]
	if tracked {
		delete(s.failures, req.User)
	}
	s.mu.Unlock()
	if tracked {
		s.persistLockout(req.User, 0)
	}
	return Response{Version: Version, Code: CodeOK, Remaining: s.lockout}
}

// reset is the administrative lockout clear. The clear is written
// through the store before the in-memory counter is dropped, and a
// refused write is answered, not acked: an unpersisted clear would
// come back at the next counter load.
func (s *Service) reset(req Request) Response {
	if req.User == "" {
		return Response{Version: Version, Code: CodeInvalid, Err: "user required"}
	}
	if s.locks != nil {
		if err := s.locks.SetLockout(req.User, 0); err != nil {
			return storeFailure(err, "storage error")
		}
	}
	s.mu.Lock()
	delete(s.failures, req.User)
	s.mu.Unlock()
	return Response{Version: Version, Code: CodeOK}
}

// change replaces an account's password after verifying the old one.
// Failed old-password checks consume lockout attempts exactly like
// failed logins, so change cannot be used to bypass rate limiting.
func (s *Service) change(ctx context.Context, req Request) Response {
	resp := s.login(ctx, Request{Op: OpLogin, User: req.User, Clicks: req.Clicks})
	if !resp.OK() {
		return resp
	}
	if resp, expired := deadlineCheck(ctx); expired {
		return resp
	}
	rec, err := passpoints.Enroll(s.cfg, req.User, clicksToPoints(req.NewClicks))
	if err != nil {
		return Response{Version: Version, Code: CodeInvalid, Err: err.Error()}
	}
	if err := s.store.Replace(rec); err != nil {
		return storeFailure(err, err.Error())
	}
	return Response{Version: Version, Code: CodeOK}
}

// maxFailureEntries caps the failed-attempt map: login floods with
// attacker-chosen (mostly nonexistent) user names must not grow
// server memory without bound — the same discipline as the rate
// limiter's maxRateBuckets.
const maxFailureEntries = 1 << 16

func (s *Service) fail(user string) Response {
	s.mu.Lock()
	var evicted []string
	if _, tracked := s.failures[user]; !tracked && len(s.failures) >= maxFailureEntries {
		evicted = s.sweepFailures()
	}
	s.failures[user]++
	n := s.failures[user]
	remaining := s.lockout - n
	s.mu.Unlock()
	// All journaled counter writes happen after releasing s.mu: on a
	// durable fsync=always store each write is a disk flush, and
	// holding the one service-wide mutex across it would serialize
	// every login — counter clears included — behind attacker-paced
	// failures (and a sweep's 64k eviction zeroes would stall the
	// service for seconds). The cost is ordering: two racing updates
	// for one user may journal out of order, so a restart can see a
	// counter one step stale — never a lifted lockout, since the
	// in-memory map (which is what locks accounts out) is updated
	// under the lock above.
	s.persistLockout(user, n)
	if len(evicted) > 0 {
		// A sweep evicts up to 64k entries; journaling their zeroes
		// inline would pin this one request (and the WAL shard locks)
		// for seconds on an fsync=always store, so hand the batch to a
		// background goroutine. Losing the zeroes to a crash mid-batch
		// only resurrects partial counters on the next restart.
		go func() {
			for _, u := range evicted {
				s.persistLockout(u, 0)
			}
		}()
	}
	if remaining <= 0 {
		if n == s.lockout {
			// Exactly the crossing attempt — racing failures past the
			// threshold (n > lockout) refuse without re-counting.
			s.lockouts.Add(1)
		}
		return Response{Version: Version, Code: CodeLocked, Err: "account locked"}
	}
	return Response{Version: Version, Code: CodeDenied, Err: "login failed", Remaining: remaining}
}

// LockoutsTriggered returns how many times a failed attempt crossed an
// account's lockout threshold since this service started (restarts and
// admin resets re-arm accounts, so the counter can exceed the number
// of currently locked accounts).
func (s *Service) LockoutsTriggered() int64 { return s.lockouts.Load() }

// sweepFailures evicts sub-lockout counters when the map is at
// capacity, called with s.mu held; it returns the evicted users so
// the caller can persist their zeroes outside the lock. Locked
// accounts are never evicted — a name flood cannot lift an existing
// lockout — at the cost of resetting partial counters (an attacker
// mid-guess gets fresh attempts but pays the flood to earn them). If
// every entry is locked the map may exceed the cap; each such entry
// cost the flooder a full lockout's worth of requests, so growth is
// at least lockout-fold more expensive than the counter flood this
// bounds.
func (s *Service) sweepFailures() []string {
	var evicted []string
	for user, n := range s.failures {
		if n < s.lockout {
			delete(s.failures, user)
			if s.locks != nil {
				evicted = append(evicted, user)
			}
		}
	}
	return evicted
}

// deadlineCheck refuses a request whose context has already expired —
// the cooperative deadline gate placed before each hash-heavy stage.
// (It cannot interrupt a blocked store call; see WithDeadline.)
func deadlineCheck(ctx context.Context) (Response, bool) {
	if ctx.Err() != nil {
		return Response{Version: Version, Code: CodeUnavailable, Err: "deadline exceeded"}, true
	}
	return Response{}, false
}

func clicksToPoints(clicks []dataset.Click) []geom.Point {
	pts := make([]geom.Point, len(clicks))
	for i, c := range clicks {
		pts[i] = c.Point()
	}
	return pts
}
