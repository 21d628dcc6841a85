// Package loadtest drives client swarms against an auth server and
// reports throughput and latency percentiles — the capacity-planning
// instrument behind PERFORMANCE.md's "Server load" and "Unified
// serving layer" sections. It measures the paper's online scenario
// (§5) at service scale: many concurrent clients speaking a real wire
// protocol, so the numbers include the codec, scheme verification,
// hashing, and store contention.
//
// The driver is transport-agnostic: a swarm runs over any
// authsvc.Client factory, so the framed-TCP codec and the HTTP/JSON
// codec are measured through identical code (TCPTransport,
// HTTPTransport). The driver is deliberately dumb: every client owns
// one transport handle, issues its ops back to back, and records
// wall-clock latency per op. Aggregation happens after the swarm
// finishes, so the measurement path adds no cross-client
// synchronization beyond the start gate.
package loadtest

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/dataset"
)

// Config describes one swarm run.
type Config struct {
	// Dial opens the client-th transport handle. TCPTransport and
	// HTTPTransport build factories for the two shipped codecs; tests
	// may inject anything that satisfies authsvc.Client.
	Dial func(client int) (authsvc.Client, error)
	// Clients is the number of concurrent swarm clients.
	Clients int
	// OpsPerClient is how many requests each client issues.
	OpsPerClient int
	// Request builds the op-th request for the client-th connection.
	// It must be safe for concurrent calls with distinct client
	// numbers.
	Request func(client, op int) authsvc.Request
	// Check, if non-nil, classifies a response as an error (e.g. a
	// login that must succeed coming back denied). Transport failures
	// are always errors.
	Check func(client, op int, resp authsvc.Response) error
}

// TCPTransport returns a Dial factory over the framed-TCP codec: one
// connection per swarm client. timeout bounds connection setup
// (0 = 5s).
func TCPTransport(addr string, timeout time.Duration) func(client int) (authsvc.Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return func(int) (authsvc.Client, error) {
		return authproto.Dial(addr, timeout)
	}
}

// HTTPTransport returns a Dial factory over the HTTP/JSON codec. Each
// swarm client gets its own http.Client whose pool is capped at one
// connection, mirroring the TCP swarm's one-connection-per-client
// shape so the two transports measure comparable things.
func HTTPTransport(baseURL string) func(client int) (authsvc.Client, error) {
	return func(int) (authsvc.Client, error) {
		hc := &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
			},
			Timeout: 30 * time.Second,
		}
		return authproto.NewHTTPClient(baseURL, hc), nil
	}
}

// Result aggregates a swarm run.
type Result struct {
	Clients int
	Ops     int // completed requests across all clients
	Errors  int
	Elapsed time.Duration // start gate to last client done
	P50     time.Duration
	P95     time.Duration
	P99     time.Duration
	Max     time.Duration
}

// Throughput returns completed ops per second over the whole run.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// String formats the result as one benchmark-style line.
func (r Result) String() string {
	return fmt.Sprintf("clients=%d ops=%d errs=%d %.0f ops/s p50=%s p95=%s p99=%s max=%s",
		r.Clients, r.Ops, r.Errors, r.Throughput(), r.P50, r.P95, r.P99, r.Max)
}

// Run executes the swarm: Clients transport handles issuing
// OpsPerClient requests each, all released together after every
// handle is dialed. It returns an error only when the swarm could not
// run at all (bad config, dial failure); per-op failures are counted
// in Result.Errors.
func Run(cfg Config) (Result, error) {
	if cfg.Clients <= 0 || cfg.OpsPerClient <= 0 {
		return Result{}, fmt.Errorf("loadtest: clients %d and ops %d must be positive",
			cfg.Clients, cfg.OpsPerClient)
	}
	if cfg.Request == nil {
		return Result{}, fmt.Errorf("loadtest: nil request factory")
	}
	if cfg.Dial == nil {
		return Result{}, fmt.Errorf("loadtest: nil transport factory")
	}
	// Dial everything first so the measured window contains only
	// request traffic, not connection setup.
	clients := make([]authsvc.Client, cfg.Clients)
	for i := range clients {
		c, err := cfg.Dial(i)
		if err != nil {
			for _, open := range clients[:i] {
				open.Close()
			}
			return Result{}, fmt.Errorf("loadtest: dialing client %d: %w", i, err)
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	type clientStats struct {
		lats []time.Duration
		errs int
	}
	stats := make([]clientStats, cfg.Clients)
	start := make(chan struct{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &stats[i]
			st.lats = make([]time.Duration, 0, cfg.OpsPerClient)
			<-start
			for op := 0; op < cfg.OpsPerClient; op++ {
				req := cfg.Request(i, op)
				t0 := time.Now()
				resp, err := clients[i].Do(ctx, req)
				lat := time.Since(t0)
				if err != nil {
					st.errs++
					return // transport is dead; stop this client
				}
				st.lats = append(st.lats, lat)
				if cfg.Check != nil {
					if err := cfg.Check(i, op, resp); err != nil {
						st.errs++
					}
				}
			}
		}(i)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	res := Result{Clients: cfg.Clients, Elapsed: elapsed}
	var all []time.Duration
	for i := range stats {
		res.Ops += len(stats[i].lats)
		res.Errors += stats[i].errs
		all = append(all, stats[i].lats...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		res.P50 = percentile(all, 0.50)
		res.P95 = percentile(all, 0.95)
		res.P99 = percentile(all, 0.99)
		res.Max = all[len(all)-1]
	}
	return res, nil
}

// percentile reads the q-quantile from sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// AuthMix returns a Request factory for a read-heavy authentication
// mix: every writePeriod-th op is a password change (a vault write via
// Replace plus two hash computations); the rest are logins (pure
// reads). writePeriod <= 0 disables writes. Each client owns the
// identity users[client%len(users)], which must already be enrolled
// with clicksFor(user). The mix is transport-agnostic — the same
// factory drives TCP and HTTP swarms. AuthMix panics immediately on
// an empty user list — in the caller's goroutine, not a swarm
// worker's.
func AuthMix(users []string, clicksFor func(user string) []dataset.Click, writePeriod int) func(client, op int) authsvc.Request {
	if len(users) == 0 {
		panic("loadtest: AuthMix requires at least one user")
	}
	return func(client, op int) authsvc.Request {
		user := users[client%len(users)]
		clicks := clicksFor(user)
		if writePeriod > 0 && op%writePeriod == writePeriod-1 {
			// Change to the same password: exercises the write path
			// without invalidating the other clients' credentials.
			return authsvc.Request{Version: authsvc.Version, Op: authsvc.OpChange, User: user, Clicks: clicks, NewClicks: clicks}
		}
		return authsvc.Request{Version: authsvc.Version, Op: authsvc.OpLogin, User: user, Clicks: clicks}
	}
}

// SessionMix drives the session-tier serving shape: each swarm client
// logs in once to obtain a signed session token, then spends every
// remaining op validating it — the sign-once/verify-everywhere
// pattern the stateless session tier serves. The token is captured
// from the login response by the mix's Check, so wire both Request
// and Check into the Config. Per-client state is touched only from
// that client's goroutine (Run issues client i's requests and checks
// sequentially), so the mix needs no locking.
type SessionMix struct {
	users     []string
	clicksFor func(user string) []dataset.Click
	tokens    []string // per-client captured token; goroutine-local to client i
}

// NewSessionMix builds a session mix for a swarm of `clients` clients
// over the already-enrolled users. It panics immediately on an empty
// user list — in the caller's goroutine, not a swarm worker's.
func NewSessionMix(users []string, clicksFor func(user string) []dataset.Click, clients int) *SessionMix {
	if len(users) == 0 {
		panic("loadtest: NewSessionMix requires at least one user")
	}
	return &SessionMix{users: users, clicksFor: clicksFor, tokens: make([]string, clients)}
}

func (m *SessionMix) user(client int) string { return m.users[client%len(m.users)] }

// Request issues logins until the client has captured a token, then
// validates it for the rest of the run.
func (m *SessionMix) Request(client, op int) authsvc.Request {
	if m.tokens[client] == "" {
		user := m.user(client)
		return authsvc.Request{Version: authsvc.Version, Op: authsvc.OpLogin, User: user, Clicks: m.clicksFor(user)}
	}
	return authsvc.Request{Version: authsvc.Version, Op: authsvc.OpValidate, Token: m.tokens[client]}
}

// Check requires every op to succeed, captures minted tokens, and
// flags a token-less login — against a server with no session tier
// the mix would otherwise silently degrade into all-logins and
// measure nothing it claims to.
func (m *SessionMix) Check(client, op int, resp authsvc.Response) error {
	if err := RequireOK(client, op, resp); err != nil {
		return err
	}
	if resp.Token != "" {
		m.tokens[client] = resp.Token
	} else if m.tokens[client] == "" {
		return fmt.Errorf("loadtest: client %d login minted no session token", client)
	}
	if resp.User != "" && resp.User != m.user(client) {
		return fmt.Errorf("loadtest: client %d token validated as %q, want %q", client, resp.User, m.user(client))
	}
	return nil
}

// RequireOK is a Check that flags any non-OK response — the right
// check for a mix whose every request is expected to succeed.
func RequireOK(client, op int, resp authsvc.Response) error {
	if !resp.OK() {
		return fmt.Errorf("loadtest: client %d op %d refused: %s (%s)", client, op, resp.Err, resp.Code)
	}
	return nil
}
