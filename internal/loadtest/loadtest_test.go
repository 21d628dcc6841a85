package loadtest

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/session"
	"clickpass/internal/vault"
)

// startServer spins an authproto server over the given store on a
// loopback listener and returns the server, its TCP address, and a
// drain func.
func startServer(tb testing.TB, store vault.Store, maxConns int) (srv *authproto.Server, addr string, shutdown func()) {
	tb.Helper()
	scheme, err := core.NewCentered(13)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: 2,
	}
	srv, err = authproto.NewServer(cfg, store, 1<<30)
	if err != nil {
		tb.Fatal(err)
	}
	if maxConns > 0 {
		srv.SetMaxConns(maxConns)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() { _ = srv.Serve(l); close(done) }()
	return srv, l.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
		<-done
	}
}

// startHTTP adds an HTTP front to an already-running server and
// returns its base URL and closer. Both fronts share the server's
// pipeline and limiter — that sharing is what the limiter test pins.
func startHTTP(tb testing.TB, srv *authproto.Server) (baseURL string, closeFn func()) {
	tb.Helper()
	ts := httptest.NewServer(srv.HTTPHandler())
	return ts.URL, ts.Close
}

// userClicks derives a user's deterministic 5-click password from its
// name ("u-<n>").
func userClicks(user string) []dataset.Click {
	n, _ := strconv.Atoi(strings.TrimPrefix(user, "u-"))
	dx := n % 40
	return []dataset.Click{
		{X: 30 + dx, Y: 40}, {X: 120 + dx, Y: 300}, {X: 222 + dx, Y: 51},
		{X: 400 + dx, Y: 200}, {X: 77 + dx, Y: 160},
	}
}

// enrollUsers registers n identities through the protocol and returns
// their names.
func enrollUsers(tb testing.TB, addr string, n int) []string {
	tb.Helper()
	c, err := authproto.Dial(addr, 5*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("u-%d", i)
		resp, err := c.Enroll(ctx, users[i], userClicks(users[i]))
		if err != nil || !resp.OK() {
			tb.Fatalf("enroll %s: %+v %v", users[i], resp, err)
		}
	}
	return users
}

// TestLoadSwarmSmoke is the CI smoke point (go test -run TestLoad
// -short): a small swarm against both store backends and both
// transports must complete with zero errors and sane measurements.
func TestLoadSwarmSmoke(t *testing.T) {
	clientCount, ops := 16, 10
	if testing.Short() {
		clientCount, ops = 8, 5
	}
	for _, tc := range []struct {
		name  string
		store func(tb testing.TB) vault.Store
	}{
		{"sharded", func(testing.TB) vault.Store { return vault.NewSharded(0) }},
		{"durable", func(tb testing.TB) vault.Store {
			d, err := vault.OpenDurable(tb.TempDir(), vault.DurableOptions{})
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { d.Close() })
			return d
		}},
	} {
		srv, addr, shutdown := startServer(t, tc.store(t), 64)
		baseURL, closeHTTP := startHTTP(t, srv)
		users := enrollUsers(t, addr, clientCount)
		for _, transport := range []struct {
			name string
			dial func(int) (authsvc.Client, error)
		}{
			{"tcp", TCPTransport(addr, 0)},
			{"http", HTTPTransport(baseURL)},
		} {
			t.Run(tc.name+"/"+transport.name, func(t *testing.T) {
				res, err := Run(Config{
					Dial:         transport.dial,
					Clients:      clientCount,
					OpsPerClient: ops,
					Request:      AuthMix(users, userClicks, 10),
					Check:        RequireOK,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s/%s: %s", tc.name, transport.name, res)
				if res.Errors != 0 {
					t.Errorf("swarm saw %d errors", res.Errors)
				}
				if res.Ops != clientCount*ops {
					t.Errorf("completed %d ops, want %d", res.Ops, clientCount*ops)
				}
				if res.P50 <= 0 || res.Max < res.P99 || res.P99 < res.P50 {
					t.Errorf("implausible latency spread: %s", res)
				}
				if res.Throughput() <= 0 {
					t.Errorf("throughput = %v", res.Throughput())
				}
			})
		}
		closeHTTP()
		shutdown()
	}
}

// startSessionServer is startServer with a stateless session tier
// mounted (soft-state keys: no Store, so the manager mints its own
// generation 1), the serving shape the session mix drives.
func startSessionServer(tb testing.TB, store vault.Store) (addr string, shutdown func()) {
	tb.Helper()
	scheme, err := core.NewCentered(13)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: 2,
	}
	srv, err := authproto.NewServer(cfg, store, 1<<30)
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := session.New(session.Options{TTL: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(mgr.Close)
	srv.SetSession(mgr)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() { _ = srv.Serve(l); close(done) }()
	return l.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
		<-done
	}
}

// TestLoadSessionMix is the session-tier swarm smoke (runs under the
// CI loadsmoke pattern): every client logs in once, then validates
// its token for the rest of the run, with zero errors — which proves
// the login minted a token (the mix flags token-less logins) and that
// every validate came back OK for the right user.
func TestLoadSessionMix(t *testing.T) {
	clientCount, ops := 16, 20
	if testing.Short() {
		clientCount, ops = 8, 10
	}
	addr, shutdown := startSessionServer(t, vault.NewSharded(0))
	defer shutdown()
	users := enrollUsers(t, addr, clientCount)
	mix := NewSessionMix(users, userClicks, clientCount)
	res, err := Run(Config{
		Dial:         TCPTransport(addr, 0),
		Clients:      clientCount,
		OpsPerClient: ops,
		Request:      mix.Request,
		Check:        mix.Check,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("session mix: %s", res)
	if res.Errors != 0 {
		t.Errorf("session swarm saw %d errors", res.Errors)
	}
	if res.Ops != clientCount*ops {
		t.Errorf("completed %d ops, want %d", res.Ops, clientCount*ops)
	}
}

// slowStore delays reads so in-flight requests pile up against the
// admission limiter — the load shape the shared-limit test needs.
type slowStore struct {
	vault.Store
	delay time.Duration
}

func (s slowStore) Get(user string) (*passpoints.Record, error) {
	time.Sleep(s.delay)
	return s.Store.Get(user)
}

func (s slowStore) GetPacked(user string) (passpoints.Packed, error) {
	time.Sleep(s.delay)
	return s.Store.GetPacked(user)
}

// TestLoadSharedLimiterCapsBothFronts is the acceptance point for the
// unified serving layer: TCP and HTTP swarms run concurrently against
// one server whose -maxconns equivalent is far below the combined
// client count, and the pipeline's in-flight high-water mark must
// never exceed that cap — one par.Limiter provably admits both
// transports. The slow store guarantees requests overlap, so the test
// also asserts the cap was actually reached (the limiter was the
// binding constraint, not a coincidence of scheduling).
func TestLoadSharedLimiterCapsBothFronts(t *testing.T) {
	// The TCP swarm is sized at the cap (a swarm client holds its
	// connection for the whole run, and the connection pool is also
	// -maxconns); the HTTP swarm provides the oversubscription that
	// forces the shared limiter to arbitrate across fronts.
	const maxConns = 4
	tcpClients, httpClients := maxConns, 12
	ops := 6
	if testing.Short() {
		httpClients, ops = 8, 4
	}
	srv, addr, shutdown := startServer(t, slowStore{vault.NewSharded(0), 2 * time.Millisecond}, maxConns)
	defer shutdown()
	baseURL, closeHTTP := startHTTP(t, srv)
	defer closeHTTP()
	users := enrollUsers(t, addr, httpClients)

	type out struct {
		name string
		res  Result
		err  error
	}
	results := make(chan out, 2)
	var wg sync.WaitGroup
	for _, transport := range []struct {
		name    string
		clients int
		dial    func(int) (authsvc.Client, error)
	}{
		{"tcp", tcpClients, TCPTransport(addr, 0)},
		{"http", httpClients, HTTPTransport(baseURL)},
	} {
		wg.Add(1)
		go func(name string, clients int, dial func(int) (authsvc.Client, error)) {
			defer wg.Done()
			res, err := Run(Config{
				Dial:         dial,
				Clients:      clients,
				OpsPerClient: ops,
				Request:      AuthMix(users, userClicks, 0),
				Check:        RequireOK,
			})
			results <- out{name, res, err}
		}(transport.name, transport.clients, transport.dial)
	}
	wg.Wait()
	close(results)
	total := 0
	for r := range results {
		if r.err != nil {
			t.Fatalf("%s swarm: %v", r.name, r.err)
		}
		if r.res.Errors != 0 {
			t.Errorf("%s swarm saw %d errors: %s", r.name, r.res.Errors, r.res)
		}
		total += r.res.Ops
		t.Logf("%s: %s", r.name, r.res)
	}
	if want := (tcpClients + httpClients) * ops; total != want {
		t.Errorf("completed %d ops across both fronts, want %d", total, want)
	}
	peak := srv.Metrics().Peak()
	if peak > maxConns {
		t.Errorf("combined in-flight peaked at %d, limiter cap is %d", peak, maxConns)
	}
	if peak < maxConns {
		t.Errorf("combined in-flight peaked at %d; expected the %d-slot limiter to saturate under %d clients",
			peak, maxConns, tcpClients+httpClients)
	}
}

// TestLoadRunValidation: unusable configs must fail fast, not hang.
func TestLoadRunValidation(t *testing.T) {
	deadDial := TCPTransport("127.0.0.1:1", 200*time.Millisecond)
	if _, err := Run(Config{Dial: deadDial, Clients: 0, OpsPerClient: 1}); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := Run(Config{Dial: deadDial, Clients: 1, OpsPerClient: 0}); err == nil {
		t.Error("zero ops accepted")
	}
	if _, err := Run(Config{Dial: deadDial, Clients: 1, OpsPerClient: 1}); err == nil {
		t.Error("nil request factory accepted")
	}
	ping := func(c, o int) authsvc.Request { return authsvc.Request{Op: authsvc.OpPing} }
	if _, err := Run(Config{Clients: 1, OpsPerClient: 1, Request: ping}); err == nil {
		t.Error("nil transport factory accepted")
	}
	// A dead address must error out, not report an empty result.
	if _, err := Run(Config{Dial: deadDial, Clients: 1, OpsPerClient: 1, Request: ping}); err == nil {
		t.Error("unreachable server accepted")
	}
}

// TestLoadCheckCountsFailures: a Check rejection must surface in
// Result.Errors while the swarm keeps running — over both transports.
func TestLoadCheckCountsFailures(t *testing.T) {
	srv, addr, shutdown := startServer(t, vault.NewSharded(0), 0)
	defer shutdown()
	baseURL, closeHTTP := startHTTP(t, srv)
	defer closeHTTP()
	for _, transport := range []struct {
		name string
		dial func(int) (authsvc.Client, error)
	}{
		{"tcp", TCPTransport(addr, 0)},
		{"http", HTTPTransport(baseURL)},
	} {
		t.Run(transport.name, func(t *testing.T) {
			res, err := Run(Config{
				Dial:         transport.dial,
				Clients:      2,
				OpsPerClient: 3,
				// Logins for users that were never enrolled: transported
				// fine, refused by the server.
				Request: func(c, o int) authsvc.Request {
					return authsvc.Request{Op: authsvc.OpLogin, User: "ghost", Clicks: userClicks("u-0")}
				},
				Check: RequireOK,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != res.Ops || res.Ops != 6 {
				t.Errorf("want every op counted and flagged: %s", res)
			}
		})
	}
}

// TestLoadTransportsAgree: the same mix over TCP and HTTP must produce
// the same service outcomes — the interchangeability the unified
// client interface promises.
func TestLoadTransportsAgree(t *testing.T) {
	srv, addr, shutdown := startServer(t, vault.NewSharded(0), 0)
	defer shutdown()
	baseURL, closeHTTP := startHTTP(t, srv)
	defer closeHTTP()
	users := enrollUsers(t, addr, 4)

	ctx := context.Background()
	tcp, err := authproto.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	web := authproto.NewHTTPClient(baseURL, &http.Client{Timeout: 10 * time.Second})
	defer web.Close()

	for _, try := range []struct {
		name   string
		clicks []dataset.Click
	}{
		{"good", userClicks(users[0])},
		{"bad", userClicks("u-33")},
	} {
		a, err := tcp.Login(ctx, users[0], try.clicks)
		if err != nil {
			t.Fatalf("tcp %s login: %v", try.name, err)
		}
		b, err := web.Login(ctx, users[0], try.clicks)
		if err != nil {
			t.Fatalf("http %s login: %v", try.name, err)
		}
		// Remaining differs across consecutive failures by design;
		// compare code and error, the service-level outcome.
		if a.Code != b.Code || a.Err != b.Err {
			t.Errorf("%s login disagrees across transports: tcp=%+v http=%+v", try.name, a, b)
		}
	}
	if err := tcp.Ping(ctx); err != nil {
		t.Errorf("tcp ping: %v", err)
	}
	if err := web.Ping(ctx); err != nil {
		t.Errorf("http ping: %v", err)
	}
}
