package authproto

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/vault"
)

// flakyListener scripts Accept: a run of transient errors, then
// net.ErrClosed (a clean shutdown). It records call times so the test
// can prove the loop backed off instead of spinning.
type flakyListener struct {
	mu      sync.Mutex
	errs    []error
	accepts []time.Time
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.accepts = append(l.accepts, time.Now())
	if len(l.errs) == 0 {
		return nil, net.ErrClosed
	}
	err := l.errs[0]
	l.errs = l.errs[1:]
	return nil, err
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

func (l *flakyListener) calls() []time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Time(nil), l.accepts...)
}

// TestServeBacksOffOnTransientAcceptErrors: EMFILE-style accept
// failures must not kill the server or hot-loop it; the loop retries
// with growing delays and keeps serving once Accept recovers (here:
// reaches the clean-shutdown error).
func TestServeBacksOffOnTransientAcceptErrors(t *testing.T) {
	emfile := &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	l := &flakyListener{errs: []error{emfile, emfile, emfile, emfile}}
	s := testServer(t, 10)
	start := time.Now()
	if err := s.Serve(l); err != nil {
		t.Fatalf("Serve = %v; transient errors must not be fatal", err)
	}
	calls := l.calls()
	if len(calls) != 5 { // 4 transient failures + the final ErrClosed
		t.Fatalf("Accept called %d times, want 5", len(calls))
	}
	// Backoff schedule: 5, 10, 20, 40ms windows with jitter in
	// [w/2, w) — total sleep in [37.5ms, 75ms).
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Errorf("4 transient failures retried in %s; no backoff happened", elapsed)
	}
	// Each gap must be at least half the previous window (jitter floor)
	// and growing in expectation; check the floors only, timers can
	// oversleep under load but never undersleep.
	for i, wantMin := range []time.Duration{2500 * time.Microsecond, 5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		if gap := calls[i+1].Sub(calls[i]); gap < wantMin {
			t.Errorf("retry %d after %s, want >= %s", i+1, gap, wantMin)
		}
	}
}

// TestServeFatalAcceptError: a non-transient accept failure still
// kills the loop loudly — backoff must not swallow real breakage.
func TestServeFatalAcceptError(t *testing.T) {
	boom := errors.New("listener exploded")
	l := &flakyListener{errs: []error{boom}}
	s := testServer(t, 10)
	if err := s.Serve(l); !errors.Is(err, boom) {
		t.Fatalf("Serve = %v, want the fatal error", err)
	}
	if calls := l.calls(); len(calls) != 1 {
		t.Fatalf("fatal error retried: %d Accept calls", len(calls))
	}
}

// TestTransientAcceptErrorClassification pins the errno allowlist and
// the timeout path.
func TestTransientAcceptErrorClassification(t *testing.T) {
	for _, errno := range []syscall.Errno{
		syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM,
		syscall.ECONNABORTED, syscall.ECONNRESET, syscall.EINTR,
	} {
		wrapped := &net.OpError{Op: "accept", Net: "tcp", Err: errno}
		if !transientAcceptError(wrapped) {
			t.Errorf("%v not classified transient", errno)
		}
	}
	if transientAcceptError(errors.New("arbitrary")) {
		t.Error("arbitrary error classified transient")
	}
	if transientAcceptError(net.ErrClosed) {
		t.Error("ErrClosed classified transient (Serve handles it first, but the classifier should still say no)")
	}
	if !transientAcceptError(timeoutErr{}) {
		t.Error("net.Err timeout not classified transient")
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestStatusForOverloaded: the typed overload refusal maps to 503.
func TestStatusForOverloaded(t *testing.T) {
	if got := statusFor(authsvc.Response{Code: authsvc.CodeOverloaded}); got != http.StatusServiceUnavailable {
		t.Fatalf("statusFor(overloaded) = %d, want 503", got)
	}
}

// TestSetRetryAfterHeader: the shed response's retry hint becomes a
// whole-second Retry-After header, rounded up; other codes set none.
func TestSetRetryAfterHeader(t *testing.T) {
	for _, tc := range []struct {
		code   authsvc.Code
		ms     int
		header string
	}{
		{authsvc.CodeOverloaded, 500, "1"},
		{authsvc.CodeOverloaded, 1000, "1"},
		{authsvc.CodeOverloaded, 1500, "2"},
		{authsvc.CodeOverloaded, 0, ""},
		{authsvc.CodeUnavailable, 1000, ""},
		{authsvc.CodeOK, 1000, ""},
	} {
		w := httptest.NewRecorder()
		setRetryAfter(w, authsvc.Response{Code: tc.code, RetryAfterMs: tc.ms})
		if got := w.Header().Get("Retry-After"); got != tc.header {
			t.Errorf("setRetryAfter(%s, %dms): header %q, want %q", tc.code, tc.ms, got, tc.header)
		}
	}
}

// TestHTTPOverloadEndToEnd drives a saturated server over real HTTP:
// one slot, one queue seat, a slow store holding the slot — the third
// concurrent login must get a fast 503 with Retry-After, and the
// Prometheus endpoint must count the shed.
func TestHTTPOverloadEndToEnd(t *testing.T) {
	// Every store call sleeps 400ms inside its admission slot — a slow
	// dependency, the canonical overload generator.
	slow := vault.NewFlaky(vault.NewSharded(0), vault.FlakyOptions{Seed: 1, LatencyRate: 1, Latency: 400 * time.Millisecond})
	s, err := NewServer(testCfg(t), slow, 10)
	if err != nil {
		t.Fatal(err)
	}
	s.SetMaxConns(1)
	s.SetOverload(authsvc.OverloadPolicy{Queue: 1, RetryAfter: 2 * time.Second})

	ts := httptest.NewServer(s.HTTPHandler())
	defer ts.Close()
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()

	// Logins for an unknown user: each reads the store once, and the
	// user's failure count stays below the lockout.
	body := `{"user":"nobody","clicks":[{"x":1,"y":2}]}`
	login := func() *http.Response {
		resp, err := ts.Client().Post(ts.URL+"/v1/login", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		return resp
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // holder + queued
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := login(); resp != nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(80 * time.Millisecond) // let it occupy slot / queue seat
	}
	t0 := time.Now()
	resp := login() // queue full -> shed
	shedLat := time.Since(t0)
	if resp == nil {
		t.Fatal("shed request failed at transport")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if shedLat > 150*time.Millisecond {
		t.Errorf("shed took %s; refusals must not wait out the 400ms spike", shedLat)
	}
	wg.Wait()

	promResp, err := admin.Client().Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := promResp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), `authsvc_shed_total{priority="high"} 1`) {
		t.Errorf("shed not visible on /metrics:\n%s", buf[:n])
	}
}
