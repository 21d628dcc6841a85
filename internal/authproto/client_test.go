package authproto

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clickpass/internal/authsvc"
)

const testDialTimeout = 2 * time.Second

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newHTTPTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(s.HTTPHandler())
}

// runClientSuite exercises the full unified-client surface over one
// transport. Each transport gets its own user namespace so the suites
// are order-independent.
func runClientSuite(t *testing.T, name string, dial func() authsvc.Client) {
	t.Run(name, func(t *testing.T) {
		c := dial()
		defer c.Close()
		ctx := context.Background()
		user := name + "-user"

		if err := c.Ping(ctx); err != nil {
			t.Fatalf("ping: %v", err)
		}
		resp, err := c.Enroll(ctx, user, clicks(0))
		if err != nil || !resp.OK() {
			t.Fatalf("enroll: %+v %v", resp, err)
		}
		resp, err = c.Enroll(ctx, user, clicks(0))
		if err != nil || resp.Code != authsvc.CodeExists {
			t.Fatalf("duplicate enroll: %+v %v, want %q", resp, err, authsvc.CodeExists)
		}
		resp, err = c.Login(ctx, user, clicks(3))
		if err != nil || !resp.OK() {
			t.Fatalf("login: %+v %v", resp, err)
		}
		resp, err = c.Login(ctx, user, clicks(12))
		if err != nil || resp.Code != authsvc.CodeDenied {
			t.Fatalf("far login: %+v %v, want %q", resp, err, authsvc.CodeDenied)
		}
		resp, err = c.Change(ctx, user, clicks(0), clicks(30))
		if err != nil || !resp.OK() {
			t.Fatalf("change: %+v %v", resp, err)
		}
		resp, err = c.Login(ctx, user, clicks(30))
		if err != nil || !resp.OK() {
			t.Fatalf("login after change: %+v %v", resp, err)
		}
		resp, err = c.Login(ctx, user, clicks(0))
		if err != nil || resp.OK() {
			t.Fatalf("old password after change: %+v %v", resp, err)
		}
	})
}

// TestServiceClientContextCancel: a canceled context must abort the
// call on both transports instead of blocking on the network.
func TestServiceClientContextCancel(t *testing.T) {
	s := testServer(t, 10)
	l := newLocalListener(t)
	defer l.Close()
	go func() { _ = s.Serve(l) }()
	ts := newHTTPTestServer(t, s)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tcp, err := Dial(l.Addr().String(), testDialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if _, err := tcp.Do(ctx, authsvc.Request{Op: authsvc.OpPing}); err == nil {
		t.Error("tcp client ignored canceled context")
	}
	web := NewHTTPClient(ts.URL, nil)
	defer web.Close()
	if _, err := web.Do(ctx, authsvc.Request{Op: authsvc.OpPing}); err == nil {
		t.Error("http client ignored canceled context")
	}
}

// TestHTTPChangeAndResetEndpoints: the HTTP front's change route
// carries TCP semantics, the public mux refuses the administrative
// reset, and the separate admin handler performs it.
func TestHTTPChangeAndResetEndpoints(t *testing.T) {
	s := testServer(t, 2)
	ts := newHTTPTestServer(t, s)
	defer ts.Close()
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()
	c := NewHTTPClient(ts.URL, nil)
	defer c.Close()
	ctx := context.Background()

	if resp, err := c.Enroll(ctx, "h", clicks(0)); err != nil || !resp.OK() {
		t.Fatalf("enroll: %+v %v", resp, err)
	}
	// Two wrong changes lock the account.
	for i := 0; i < 2; i++ {
		if resp, err := c.Change(ctx, "h", clicks(9), clicks(30)); err != nil || resp.OK() {
			t.Fatalf("wrong change %d: %+v %v", i, resp, err)
		}
	}
	resp, err := c.Login(ctx, "h", clicks(0))
	if err != nil || resp.Code != authsvc.CodeLocked {
		t.Fatalf("locked login: %+v %v", resp, err)
	}
	// The public front must NOT offer the reset — otherwise any online
	// guesser could clear its own failure counter.
	pub, err := http.Post(ts.URL+"/v1/reset", "application/json", strings.NewReader(`{"user":"h"}`))
	if err != nil {
		t.Fatal(err)
	}
	pub.Body.Close()
	if pub.StatusCode != http.StatusNotFound {
		t.Fatalf("public reset status = %d, want 404", pub.StatusCode)
	}
	// Administrative reset on the admin surface unlocks it.
	adminC := NewHTTPClient(admin.URL, nil)
	defer adminC.Close()
	resp, err = adminC.Do(ctx, authsvc.Request{Op: authsvc.OpReset, User: "h"})
	if err != nil || !resp.OK() {
		t.Fatalf("admin reset: %+v %v", resp, err)
	}
	if resp, err := c.Login(ctx, "h", clicks(0)); err != nil || !resp.OK() {
		t.Fatalf("login after reset: %+v %v", resp, err)
	}
}

// TestSharedLimiterAcrossFronts: with a one-slot admission limiter, a
// request parked inside the service must exclude requests from the
// *other* transport — the pipeline-sharing pin at the authproto level
// (loadtest holds the swarm-scale version).
func TestSharedLimiterAcrossFronts(t *testing.T) {
	s := testServer(t, 10)
	s.SetMaxConns(1)
	l := newLocalListener(t)
	defer l.Close()
	go func() { _ = s.Serve(l) }()
	ts := newHTTPTestServer(t, s)
	defer ts.Close()

	// Park a TCP request inside the pipeline by racing many pings from
	// both fronts at once; the metrics high-water mark across the whole
	// burst must never exceed the single slot.
	done := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func() {
			c, err := Dial(l.Addr().String(), testDialTimeout)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if err := c.Ping(context.Background()); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		go func() {
			c := NewHTTPClient(ts.URL, nil)
			defer c.Close()
			for j := 0; j < 20; j++ {
				if err := c.Ping(context.Background()); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if peak := s.Metrics().Peak(); peak != 1 {
		t.Errorf("in-flight peak = %d across TCP+HTTP, want 1 (shared limiter)", peak)
	}
}

// TestTCPServiceClientPoisonedAfterTimeout: a call that dies
// mid-exchange leaves the framed connection out of lockstep, so the
// client must refuse further calls instead of pairing the next
// request with a stale response frame.
func TestTCPServiceClientPoisonedAfterTimeout(t *testing.T) {
	serverConn, clientConn := net.Pipe()
	defer serverConn.Close()
	c := NewClient(clientConn)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Nobody reads the pipe: the write blocks until the deadline kills
	// the exchange.
	if _, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpPing}); err == nil {
		t.Fatal("exchange against a dead peer succeeded")
	}
	// A fresh context must not resurrect the desynchronized connection.
	if _, err := c.Do(context.Background(), authsvc.Request{Op: authsvc.OpPing}); err == nil {
		t.Fatal("poisoned client accepted another call")
	}
}

// TestTCPFrontRefusesReset: the public TCP front must refuse the
// administrative reset, exactly like the public HTTP mux — otherwise
// an online guesser could clear its own failure counter between
// guesses and defeat the lockout.
func TestTCPFrontRefusesReset(t *testing.T) {
	s := testServer(t, 2)
	l := newLocalListener(t)
	defer l.Close()
	go func() { _ = s.Serve(l) }()

	c, err := Dial(l.Addr().String(), testDialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if resp, err := c.Enroll(ctx, "t", clicks(0)); err != nil || !resp.OK() {
		t.Fatalf("enroll: %+v %v", resp, err)
	}
	// Lock the account with wrong passwords, attempting a wire-level
	// reset between guesses.
	for i := 0; i < 2; i++ {
		if resp, err := c.Login(ctx, "t", clicks(9)); err != nil || resp.OK() {
			t.Fatalf("guess %d: %+v %v", i, resp, err)
		}
		resetResp, err := c.Do(ctx, authsvc.Request{Op: authsvc.OpReset, User: "t"})
		if err != nil {
			t.Fatal(err)
		}
		if resetResp.OK() {
			t.Fatal("public TCP front accepted an administrative reset")
		}
	}
	if resp, err := c.Login(ctx, "t", clicks(0)); err != nil || !resp.Locked() {
		t.Fatalf("lockout was bypassed via wire resets: %+v %v", resp, err)
	}
	// The in-process admin path still resets.
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpReset, User: "t"}); !resp.OK() {
		t.Fatalf("in-process reset refused: %+v", resp)
	}
	if resp, err := c.Login(ctx, "t", clicks(0)); err != nil || !resp.OK() {
		t.Fatalf("login after admin reset: %+v %v", resp, err)
	}
}
