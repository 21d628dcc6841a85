package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
	"clickpass/internal/vault/repl"
)

// newAuthServer builds an authproto server over the store with the
// shared loadtest scheme, leaving transports for the caller to mount.
func newAuthServer(tb testing.TB, store vault.Store) *authproto.Server {
	tb.Helper()
	scheme, err := core.NewCentered(13)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := authproto.NewServer(passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: 2,
	}, store, 1<<30)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// TestLoadRedirect421Swarm covers the not_primary redirect path under
// concurrent swarm load: a write-only swarm aimed at a follower's
// HTTP front gets a 421 per connection, the RetryClient follows the
// advertised primary exactly once, and every subsequent write lands
// directly on the primary — zero errors, zero breaker charges. The
// raw HTTP status (421 Misdirected Request with the primary in the
// body) is pinned separately, since the swarm only sees the decoded
// code.
func TestLoadRedirect421Swarm(t *testing.T) {
	clientCount, ops := 8, 8
	if testing.Short() {
		clientCount, ops = 4, 4
	}
	open := func() *vault.Durable {
		d, err := vault.OpenDurable(t.TempDir(), vault.DurableOptions{Shards: 4, NoAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	pst, fst := open(), open()

	// The primary's client-facing TCP front must exist before the repl
	// node advertises it, so listen first and serve onto it later.
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primaryAddr := pl.Addr().String()
	p, err := repl.New(pst, repl.RolePrimary, repl.Options{
		Listen:        "127.0.0.1:0",
		Ack:           repl.AckQuorum,
		QuorumTimeout: 10 * time.Second,
		Advertise:     primaryAddr,
		Logf:          func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f, err := repl.New(fst, repl.RoleFollower, repl.Options{
		Primary: p.ReplAddr(),
		Logf:    func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	psrv := newAuthServer(t, p)
	pdone := make(chan struct{})
	go func() { _ = psrv.Serve(pl); close(pdone) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := psrv.Shutdown(ctx); err != nil {
			t.Errorf("primary shutdown: %v", err)
		}
		<-pdone
	}()
	fsrv := newAuthServer(t, f)
	fts := httptest.NewServer(fsrv.HTTPHandler())
	defer fts.Close()

	users := enrollUsers(t, primaryAddr, clientCount)

	// Pin the raw wire shape first: a write against the follower's
	// HTTP front answers 421 with the primary's address in the body.
	body, err := json.Marshal(authsvc.Request{
		Op: authsvc.OpChange, User: users[0],
		Clicks: userClicks(users[0]), NewClicks: userClicks(users[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := http.Post(fts.URL+"/v1/change", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var wire authsvc.Response
	if err := json.NewDecoder(hres.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower write answered HTTP %d, want 421", hres.StatusCode)
	}
	if wire.Code != authsvc.CodeNotPrimary || wire.Primary != primaryAddr {
		t.Fatalf("follower 421 body = code %q primary %q, want %q/%q",
			wire.Code, wire.Primary, authsvc.CodeNotPrimary, primaryAddr)
	}

	// Now the swarm: every op is a password change (writePeriod 1), so
	// every client's first request bounces off the follower with
	// not_primary and must be transparently re-aimed at the primary.
	retryClients := make([]*authsvc.RetryClient, clientCount)
	res, err := Run(Config{
		Dial: func(i int) (authsvc.Client, error) {
			inner, err := HTTPTransport(fts.URL)(i)
			if err != nil {
				return nil, err
			}
			rc := authsvc.NewRetryClient(inner, authsvc.RetryPolicy{
				Redirect: func(addr string) (authsvc.Client, error) {
					return authproto.Dial(addr, 5*time.Second)
				},
			})
			retryClients[i] = rc
			return rc, nil
		},
		Clients:      clientCount,
		OpsPerClient: ops,
		Request:      AuthMix(users, userClicks, 1),
		Check:        RequireOK,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("redirect swarm: %s", res)
	if res.Errors != 0 {
		t.Errorf("swarm saw %d errors through the redirect path", res.Errors)
	}
	if res.Ops != clientCount*ops {
		t.Errorf("completed %d ops, want %d", res.Ops, clientCount*ops)
	}
	for i, rc := range retryClients {
		s := rc.Stats()
		if s.Redirects != 1 {
			t.Errorf("client %d followed %d redirects, want exactly 1", i, s.Redirects)
		}
		// A not_primary refusal is routing, not server health: the
		// breaker must never be charged for it.
		if s.BreakerOpens != 0 || s.BreakerFastFails != 0 {
			t.Errorf("client %d breaker charged (opens=%d fastFails=%d) by redirects",
				i, s.BreakerOpens, s.BreakerFastFails)
		}
	}
}
