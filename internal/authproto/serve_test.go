package authproto

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// TestShardedStoreEndToEnd: enroll, login and lockout over the
// sharded store, through real TCP.
func TestShardedStoreEndToEnd(t *testing.T) {
	s := testServer(t, 3)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.Serve(l) }()

	c, err := Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if resp, err := c.Enroll(ctx, "iris", clicks(0)); err != nil || !resp.OK() {
		t.Fatalf("enroll: %+v %v", resp, err)
	}
	if resp, err := c.Login(ctx, "iris", clicks(3)); err != nil || !resp.OK() {
		t.Fatalf("login: %+v %v", resp, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Login(ctx, "iris", clicks(12)); err != nil {
			t.Fatal(err)
		}
	}
	if resp, err := c.Login(ctx, "iris", clicks(0)); err != nil || !resp.Locked() {
		t.Fatalf("lockout over sharded store: %+v %v", resp, err)
	}
}

// TestGracefulShutdownDrains: Shutdown must let an in-flight request
// finish and write its response, refuse new connections, and return
// once everything has drained.
func TestGracefulShutdownDrains(t *testing.T) {
	s := testServer(t, 10)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { _ = s.Serve(l); close(serveDone) }()

	// A connected client with traffic in flight while Shutdown runs.
	c, err := Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bg := context.Background()
	if err := c.Ping(bg); err != nil {
		t.Fatal(err)
	}
	var pinged atomic.Int64
	reqDone := make(chan error, 1)
	go func() {
		// Hammer requests so Shutdown overlaps an active request with
		// high probability; the client stops at the first error (the
		// server closing the drained connection).
		for {
			if err := c.Ping(bg); err != nil {
				reqDone <- nil
				return
			}
			pinged.Add(1)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let some requests through

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-reqDone
	if pinged.Load() == 0 {
		t.Error("no request completed before shutdown — test raced itself")
	}
	// Serve must have returned (listener closed, conns drained).
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// New connections are refused: dial fails, or a dialed conn gets no
	// service and dies immediately.
	if c2, err := Dial(l.Addr().String(), 200*time.Millisecond); err == nil {
		if err := c2.Ping(bg); err == nil {
			t.Error("server answered a ping after Shutdown returned")
		}
		c2.Close()
	}
}

// TestShutdownWaitsForMidFrameRequest: a request whose length prefix
// has arrived but whose body is still in flight when Shutdown begins
// must be read, handled, and answered — only *idle* connections may be
// nudged off their deadline.
func TestShutdownWaitsForMidFrameRequest(t *testing.T) {
	s := testServer(t, 10)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	body, err := json.Marshal(authsvc.Request{Op: authsvc.OpPing})
	if err != nil {
		t.Fatal(err)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(body)))
	if _, err := conn.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	// Let the server consume the prefix (leaving idle phase), then
	// start draining while the body is still unsent.
	time.Sleep(30 * time.Millisecond)
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // shutdown is now nudging idle conns
	if _, err := conn.Write(body); err != nil {
		t.Fatalf("writing late body: %v", err)
	}
	var resp authsvc.Response
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := readFrame(conn, &resp); err != nil {
		t.Fatalf("mid-frame request was dropped by shutdown: %v", err)
	}
	if !resp.OK() {
		t.Fatalf("mid-frame ping refused: %+v", resp)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServeAfterShutdownRefused: Serve on an already-shut-down server
// must return ErrServerClosed instead of accepting (and silently
// dropping) connections forever.
func TestServeAfterShutdownRefused(t *testing.T) {
	s := testServer(t, 10)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := s.Serve(l); err != ErrServerClosed {
		t.Fatalf("Serve after Shutdown = %v, want ErrServerClosed", err)
	}
}

// TestShutdownClosesIdleConnections: a connection parked between
// requests must not hold Shutdown hostage for IdleTimeout.
func TestShutdownClosesIdleConnections(t *testing.T) {
	s := testServer(t, 10)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(l) }()
	c, err := Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The connection now sits idle. Shutdown must still return fast.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with idle conn: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Shutdown took %v with one idle connection", d)
	}
}

// TestShutdownDeadlineExpires: a context that expires mid-drain must
// surface ctx.Err and hard-close what remains.
func TestShutdownDeadlineExpires(t *testing.T) {
	s := testServer(t, 10)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(l) }()
	// A raw dialed conn that never speaks the protocol: the server's
	// reader is parked; the shutdown nudge terminates it quickly, so to
	// force a deadline miss we use an already-expired context.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(10 * time.Millisecond) // let the server admit the conn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.Shutdown(ctx)
	if err != nil && err != context.Canceled {
		t.Fatalf("Shutdown = %v, want nil or context.Canceled", err)
	}
}

// TestServe256ConcurrentBounded is the acceptance load point: 256
// concurrent connections against a bounded worker pool, every client
// getting correct answers, race-clean under -race. The pool is set
// below the client count so the backlog path (Acquire blocking the
// accept loop) is exercised, not just the happy path.
func TestServe256ConcurrentBounded(t *testing.T) {
	const clients = 256
	for _, tc := range []struct {
		name     string
		maxConns int
		store    vault.Store
	}{
		{"sharded-pool64", 64, vault.NewSharded(0)},
		{"sharded1-pool256", 256, vault.NewSharded(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scheme, err := core.NewCentered(13)
			if err != nil {
				t.Fatal(err)
			}
			cfg := passpoints.Config{
				Image: geom.Size{W: 451, H: 331}, Clicks: 5, Scheme: scheme, Iterations: 2,
			}
			s, err := NewServer(cfg, tc.store, 1000)
			if err != nil {
				t.Fatal(err)
			}
			s.SetMaxConns(tc.maxConns)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan struct{})
			go func() { _ = s.Serve(l); close(serveDone) }()

			ops := 4
			if testing.Short() {
				ops = 2
			}
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c, err := Dial(l.Addr().String(), 10*time.Second)
					if err != nil {
						errs <- fmt.Errorf("client %d dial: %w", w, err)
						return
					}
					defer c.Close()
					ctx := context.Background()
					user := fmt.Sprintf("swarm-%d", w)
					if resp, err := c.Enroll(ctx, user, clicks(w%40)); err != nil || !resp.OK() {
						errs <- fmt.Errorf("client %d enroll: %+v %v", w, resp, err)
						return
					}
					for i := 0; i < ops; i++ {
						resp, err := c.Login(ctx, user, clicks(w%40+3))
						if err != nil || !resp.OK() {
							errs <- fmt.Errorf("client %d login %d: %+v %v", w, i, resp, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if n := tc.store.Len(); n != clients {
				t.Errorf("store holds %d records, want %d", n, clients)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown after load: %v", err)
			}
			select {
			case <-serveDone:
			case <-time.After(2 * time.Second):
				t.Error("Serve did not return after load + Shutdown")
			}
		})
	}
}
