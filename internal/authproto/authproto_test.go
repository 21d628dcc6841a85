package authproto

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

func testServer(t *testing.T, lockout int) *Server {
	t.Helper()
	scheme, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: 2,
	}
	s, err := NewServer(cfg, vault.NewSharded(0), lockout)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func clicks(dx int) []dataset.Click {
	return []dataset.Click{
		{X: 30 + dx, Y: 40}, {X: 120 + dx, Y: 300}, {X: 222 + dx, Y: 51},
		{X: 400 + dx, Y: 200}, {X: 77 + dx, Y: 160},
	}
}

func TestHandleEnrollLogin(t *testing.T) {
	s := testServer(t, 10)
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "alice", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll failed: %+v", resp)
	}
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "alice", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("exact login failed: %+v", resp)
	}
	// 6px displacement is within r=6.5.
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "alice", Clicks: clicks(6)}); !resp.OK() {
		t.Fatalf("6px login failed: %+v", resp)
	}
	// 7px is outside.
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "alice", Clicks: clicks(7)}); resp.OK() {
		t.Fatal("7px login accepted")
	}
}

func TestHandleErrors(t *testing.T) {
	s := testServer(t, 10)
	if resp := s.Handle(authsvc.Request{Op: "bogus"}); resp.OK() || !strings.Contains(resp.Err, "unknown op") {
		t.Errorf("bogus op: %+v", resp)
	}
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpEnroll, Clicks: clicks(0)}); resp.OK() {
		t.Error("enroll without user accepted")
	}
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, Clicks: clicks(0)}); resp.OK() {
		t.Error("login without user accepted")
	}
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "x", Clicks: clicks(0)[:2]}); resp.OK() {
		t.Error("short enroll accepted")
	}
	s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "dup", Clicks: clicks(0)})
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "dup", Clicks: clicks(0)}); resp.OK() {
		t.Error("duplicate enroll accepted")
	}
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpPing}); !resp.OK() {
		t.Error("ping failed")
	}
}

func TestLockout(t *testing.T) {
	s := testServer(t, 3)
	s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "bob", Clicks: clicks(0)})
	for i := 0; i < 2; i++ {
		resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "bob", Clicks: clicks(9)})
		if resp.OK() || resp.Locked() {
			t.Fatalf("attempt %d: %+v", i, resp)
		}
		if resp.Remaining != 2-i {
			t.Errorf("attempt %d: remaining = %d, want %d", i, resp.Remaining, 2-i)
		}
	}
	// Third failure locks.
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "bob", Clicks: clicks(9)}); !resp.Locked() {
		t.Fatalf("third failure should lock: %+v", resp)
	}
	// Correct password is now refused too.
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "bob", Clicks: clicks(0)}); !resp.Locked() {
		t.Fatalf("locked account accepted login: %+v", resp)
	}
	// Admin reset clears it.
	s.Handle(authsvc.Request{Op: authsvc.OpReset, User: "bob"})
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "bob", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("login after reset failed: %+v", resp)
	}
}

func TestSuccessfulLoginResetsCounter(t *testing.T) {
	s := testServer(t, 3)
	s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "carol", Clicks: clicks(0)})
	s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "carol", Clicks: clicks(9)})
	s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "carol", Clicks: clicks(0)}) // success
	for i := 0; i < 2; i++ {
		if resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "carol", Clicks: clicks(9)}); resp.Locked() {
			t.Fatal("counter was not reset by successful login")
		}
	}
}

func TestUnknownUserConsumesAttempts(t *testing.T) {
	s := testServer(t, 2)
	r1 := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "ghost", Clicks: clicks(0)})
	if r1.OK() || r1.Locked() {
		t.Fatalf("first ghost attempt: %+v", r1)
	}
	r2 := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "ghost", Clicks: clicks(0)})
	if !r2.Locked() {
		t.Fatalf("ghost account should lock like a real one: %+v", r2)
	}
	// Responses for unknown users must be indistinguishable from wrong
	// passwords.
	s2 := testServer(t, 2)
	s2.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "real", Clicks: clicks(0)})
	realResp := s2.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "real", Clicks: clicks(9)})
	ghostResp := s2.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "ghost2", Clicks: clicks(9)})
	if realResp.Err != ghostResp.Err {
		t.Errorf("user enumeration possible: %q vs %q", realResp.Err, ghostResp.Err)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	s := testServer(t, 10)
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
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Enroll(ctx, "dave", clicks(0))
	if err != nil || !resp.OK() {
		t.Fatalf("enroll: %+v, %v", resp, err)
	}
	resp, err = c.Login(ctx, "dave", clicks(3))
	if err != nil || !resp.OK() {
		t.Fatalf("login: %+v, %v", resp, err)
	}
	resp, err = c.Login(ctx, "dave", clicks(12))
	if err != nil || resp.OK() {
		t.Fatalf("far login accepted: %+v, %v", resp, err)
	}
	// Multiple requests on one connection must keep working.
	for i := 0; i < 5; i++ {
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
}

func TestServeRejectsOversizedFrame(t *testing.T) {
	s := testServer(t, 10)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxFrame+1)
	if _, err := conn.Write(lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	// Server must drop the connection without replying.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil {
		t.Error("server replied to oversized frame")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := authsvc.Request{Op: authsvc.OpLogin, User: "x", Clicks: clicks(0)}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out authsvc.Request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.User != in.User || len(out.Clicks) != len(in.Clicks) {
		t.Errorf("round trip mangled request: %+v", out)
	}
}

func TestReadFrameRejectsZeroLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	var req authsvc.Request
	if err := readFrame(&buf, &req); err == nil {
		t.Error("zero-length frame accepted")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := testServer(t, 3)
	ts := httptest.NewServer(s.HTTPHandler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, error) {
		return http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	}
	enrollBody := `{"user":"erin","clicks":[{"x":30,"y":40},{"x":120,"y":300},{"x":222,"y":51},{"x":400,"y":200},{"x":77,"y":160}]}`
	resp, err := post("/v1/enroll", enrollBody)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enroll status = %d", resp.StatusCode)
	}
	resp, err = post("/v1/login", enrollBody)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status = %d", resp.StatusCode)
	}
	// Wrong password: 401.
	wrong := strings.Replace(enrollBody, `"x":30`, `"x":60`, 1)
	resp, err = post("/v1/login", wrong)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong login status = %d, want 401", resp.StatusCode)
	}
	// Exhaust lockout: 429.
	post("/v1/login", wrong)
	resp, err = post("/v1/login", wrong)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("locked status = %d, want 429", resp.StatusCode)
	}
	// Bad body: 400, and a body a client reads as invalid, never as a
	// denied guess.
	resp, err = post("/v1/enroll", "{")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}
	if code := decodeCode(t, resp); code != authsvc.CodeInvalid {
		t.Fatalf("bad body code = %q, want %q", code, authsvc.CodeInvalid)
	}
	// GET on login: 405, also invalid.
	getResp, err := http.Get(ts.URL + "/v1/login")
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET login status = %d, want 405", getResp.StatusCode)
	}
	if code := decodeCode(t, getResp); code != authsvc.CodeInvalid {
		t.Fatalf("GET login code = %q, want %q", code, authsvc.CodeInvalid)
	}
	// Ping works.
	pingResp, err := http.Get(ts.URL + "/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	pingResp.Body.Close()
	if pingResp.StatusCode != http.StatusOK {
		t.Fatalf("ping status = %d", pingResp.StatusCode)
	}
}

// decodeCode reads an HTTP reply the way the typed client does and
// returns its code.
func decodeCode(t *testing.T, resp *http.Response) authsvc.Code {
	t.Helper()
	defer resp.Body.Close()
	var out authsvc.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Code
}

func TestNewServerValidation(t *testing.T) {
	scheme, _ := core.NewCentered(13)
	cfg := passpoints.Config{Image: geom.Size{W: 10, H: 10}, Clicks: 5, Scheme: scheme}
	if _, err := NewServer(cfg, nil, 0); err == nil {
		t.Error("nil vault accepted")
	}
	bad := cfg
	bad.Scheme = nil
	if _, err := NewServer(bad, vault.NewSharded(0), 0); err == nil {
		t.Error("invalid config accepted")
	}
	s, err := NewServer(cfg, vault.NewSharded(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.svc.Lockout() != authsvc.DefaultLockout {
		t.Errorf("default lockout = %d", s.svc.Lockout())
	}
}

func TestNewClientOverPipe(t *testing.T) {
	s := testServer(t, 10)
	serverConn, clientConn := net.Pipe()
	go s.serveConn(serverConn)
	c := NewClient(clientConn)
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestChangePassword(t *testing.T) {
	s := testServer(t, 3)
	s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "frank", Clicks: clicks(0)})
	newClicks := clicks(40)
	// Wrong old password: refused, consumes an attempt.
	resp := s.Handle(authsvc.Request{Op: authsvc.OpChange, User: "frank", Clicks: clicks(9), NewClicks: newClicks})
	if resp.OK() {
		t.Fatal("change with wrong old password accepted")
	}
	if resp.Remaining != 2 {
		t.Errorf("failed change should consume a lockout attempt, remaining=%d", resp.Remaining)
	}
	// Correct old password: change succeeds.
	resp = s.Handle(authsvc.Request{Op: authsvc.OpChange, User: "frank", Clicks: clicks(0), NewClicks: newClicks})
	if !resp.OK() {
		t.Fatalf("change failed: %+v", resp)
	}
	// Old password no longer works; new one does.
	if r := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "frank", Clicks: clicks(0)}); r.OK() {
		t.Error("old password still accepted after change")
	}
	if r := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "frank", Clicks: newClicks}); !r.OK() {
		t.Errorf("new password rejected after change: %+v", r)
	}
}

func TestChangeRejectsBadNewPassword(t *testing.T) {
	s := testServer(t, 3)
	s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "gina", Clicks: clicks(0)})
	resp := s.Handle(authsvc.Request{Op: authsvc.OpChange, User: "gina", Clicks: clicks(0), NewClicks: clicks(0)[:2]})
	if resp.OK() {
		t.Error("change to a 2-click password accepted")
	}
	// The old password must remain valid after the failed change.
	if r := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "gina", Clicks: clicks(0)}); !r.OK() {
		t.Error("old password lost after failed change")
	}
}

func TestChangeRespectsLockout(t *testing.T) {
	s := testServer(t, 2)
	s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "hank", Clicks: clicks(0)})
	s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "hank", Clicks: clicks(9)})
	s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "hank", Clicks: clicks(9)})
	resp := s.Handle(authsvc.Request{Op: authsvc.OpChange, User: "hank", Clicks: clicks(0), NewClicks: clicks(40)})
	if !resp.Locked() {
		t.Errorf("change on a locked account should be refused: %+v", resp)
	}
}

// TestConcurrentClients: many clients hammering one server over real
// TCP must each see consistent results (run with -race in CI).
func TestConcurrentClients(t *testing.T) {
	s := testServer(t, 1000)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.Serve(l) }()

	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			c, err := Dial(l.Addr().String(), 2*time.Second)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			ctx := context.Background()
			user := fmt.Sprintf("worker-%d", w)
			if resp, err := c.Enroll(ctx, user, clicks(w)); err != nil || !resp.OK() {
				errc <- fmt.Errorf("%s enroll: %+v %v", user, resp, err)
				return
			}
			for i := 0; i < 20; i++ {
				resp, err := c.Login(ctx, user, clicks(w+3))
				if err != nil || !resp.OK() {
					errc <- fmt.Errorf("%s login %d: %+v %v", user, i, resp, err)
					return
				}
				// A different worker's password must not verify.
				resp, err = c.Login(ctx, user, clicks(w+40))
				if err != nil || resp.OK() {
					errc <- fmt.Errorf("%s cross-login accepted", user)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
