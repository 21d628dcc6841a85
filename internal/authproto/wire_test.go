package authproto_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/loadtest"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// The golden wire test pins the bytes both fronts and both clients put
// on the wire, as literal strings. It uses only the package's serving
// surface (NewServer, Serve, HTTPHandler) and loadtest's client
// factories, with raw sockets on the other side, so it reads the bytes
// a peer sees rather than any in-process shape.

// frame prepends the 4-byte big-endian length prefix to body.
func frame(body string) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

// readRawFrame reads one whole frame, prefix included.
func readRawFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		t.Fatalf("reading frame prefix: %v", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(prefix[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatalf("reading frame body: %v", err)
	}
	return append(prefix[:], body...)
}

func goldenServer(t *testing.T) *authproto.Server {
	t.Helper()
	scheme, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := passpoints.Config{Image: geom.Size{W: 451, H: 331}, Clicks: 5, Scheme: scheme, Iterations: 2}
	s, err := authproto.NewServer(cfg, vault.NewSharded(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const (
	goldenClicks = `[{"x":30,"y":40},{"x":120,"y":300},{"x":222,"y":51},{"x":400,"y":200},{"x":77,"y":160}]`
	goldenWrong  = `[{"x":60,"y":40},{"x":120,"y":300},{"x":222,"y":51},{"x":400,"y":200},{"x":77,"y":160}]`
)

// goldenExchange is one request a peer sends and the reply it must
// read back, on either front. The HTTP front takes the op from its
// route, so an unknown op and a reset (served only on AdminHandler)
// have no public HTTP request.
type goldenExchange struct {
	name string
	op   string // HTTP route; "ping" is a GET
	body string // TCP frame body
	http string // HTTP body, or "-" when the HTTP front has no such request
	code int    // HTTP status
	want string // response JSON, without the HTTP encoder's newline
}

var goldenExchanges = []goldenExchange{
	{"ping", "ping", `{"op":"ping"}`, "", 200,
		`{"v":1,"ok":true,"code":"ok"}`},
	{"enroll", "enroll", `{"op":"enroll","user":"alice","clicks":` + goldenClicks + `}`,
		`{"user":"alice","clicks":` + goldenClicks + `}`, 200,
		`{"v":1,"ok":true,"code":"ok"}`},
	{"enroll-exists", "enroll", `{"op":"enroll","user":"alice","clicks":` + goldenClicks + `}`,
		`{"user":"alice","clicks":` + goldenClicks + `}`, 409,
		`{"v":1,"ok":false,"code":"exists","error":"user already enrolled"}`},
	{"login", "login", `{"op":"login","user":"alice","clicks":` + goldenClicks + `}`,
		`{"user":"alice","clicks":` + goldenClicks + `}`, 200,
		`{"v":1,"ok":true,"code":"ok","remaining":3}`},
	{"login-denied", "login", `{"op":"login","user":"alice","clicks":` + goldenWrong + `}`,
		`{"user":"alice","clicks":` + goldenWrong + `}`, 401,
		`{"v":1,"ok":false,"code":"denied","error":"login failed","remaining":2}`},
	{"login-denied-last", "login", `{"op":"login","user":"alice","clicks":` + goldenWrong + `}`,
		`{"user":"alice","clicks":` + goldenWrong + `}`, 401,
		`{"v":1,"ok":false,"code":"denied","error":"login failed","remaining":1}`},
	{"login-locks", "login", `{"op":"login","user":"alice","clicks":` + goldenWrong + `}`,
		`{"user":"alice","clicks":` + goldenWrong + `}`, 429,
		`{"v":1,"ok":false,"code":"locked","error":"account locked","locked":true}`},
	{"login-locked", "login", `{"op":"login","user":"alice","clicks":` + goldenClicks + `}`,
		`{"user":"alice","clicks":` + goldenClicks + `}`, 429,
		`{"v":1,"ok":false,"code":"locked","error":"account locked","locked":true}`},
	{"unknown-op", "", `{"op":"bogus","user":"alice"}`, "-", 0,
		`{"v":1,"ok":false,"code":"invalid","error":"unknown op \"bogus\""}`},
	{"future-version", "login", `{"v":99,"op":"login","user":"alice","clicks":` + goldenClicks + `}`,
		`{"v":99,"user":"alice","clicks":` + goldenClicks + `}`, 400,
		`{"v":1,"ok":false,"code":"invalid","error":"unsupported version 99"}`},
	{"validate-no-session", "validate", `{"op":"validate","token":"tok"}`,
		`{"token":"tok"}`, 400,
		`{"v":1,"ok":false,"code":"invalid","error":"session validation not enabled on this server"}`},
	{"tcp-reset-refused", "", `{"op":"reset","user":"alice"}`, "-", 0,
		`{"v":1,"ok":false,"code":"invalid","error":"reset is admin-only; not served on this front"}`},
}

// TestWireGoldenResponsesTCP: the TCP front's reply frames, byte for
// byte, to raw request frames.
func TestWireGoldenResponsesTCP(t *testing.T) {
	s := goldenServer(t)
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
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	for _, ex := range goldenExchanges {
		if _, err := conn.Write(frame(ex.body)); err != nil {
			t.Fatal(err)
		}
		if got, want := readRawFrame(t, conn), frame(ex.want); !bytes.Equal(got, want) {
			t.Errorf("%s: TCP reply\n got %q\nwant %q", ex.name, got, want)
		}
	}
}

// TestWireGoldenResponsesHTTP: the HTTP front's statuses and bodies,
// byte for byte, to raw HTTP requests.
func TestWireGoldenResponsesHTTP(t *testing.T) {
	s := goldenServer(t)
	ts := httptest.NewServer(s.HTTPHandler())
	defer ts.Close()
	for _, ex := range goldenExchanges {
		if ex.http == "-" {
			continue
		}
		var (
			resp *http.Response
			err  error
		)
		if ex.op == "ping" {
			resp, err = http.Get(ts.URL + "/v1/ping")
		} else {
			resp, err = http.Post(ts.URL+"/v1/"+ex.op, "application/json", strings.NewReader(ex.http))
		}
		if err != nil {
			t.Fatal(err)
		}
		checkHTTPReply(t, ex.name, resp, ex.code, ex.want)
	}
}

// TestWireGoldenHTTPErrors: the bodies the HTTP front writes when a
// request never reaches the service — a malformed body and a method
// other than POST.
func TestWireGoldenHTTPErrors(t *testing.T) {
	s := goldenServer(t)
	ts := httptest.NewServer(s.HTTPHandler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/login", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	checkHTTPReply(t, "malformed body", resp, http.StatusBadRequest,
		`{"v":1,"ok":false,"code":"invalid","error":"malformed request body"}`)
	resp, err = http.Get(ts.URL + "/v1/login")
	if err != nil {
		t.Fatal(err)
	}
	checkHTTPReply(t, "GET login", resp, http.StatusMethodNotAllowed,
		`{"v":1,"ok":false,"code":"invalid","error":"POST required"}`)
}

func checkHTTPReply(t *testing.T, name string, resp *http.Response, code int, want string) {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != code {
		t.Errorf("%s: HTTP status %d, want %d", name, resp.StatusCode, code)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", name, ct)
	}
	if got := string(body); got != want+"\n" {
		t.Errorf("%s: HTTP body\n got %q\nwant %q", name, got, want+"\n")
	}
}

// goldenRequests is one request per op with every field but the
// version set, as a client hands it to Do.
func goldenRequests() []authsvc.Request {
	var reqs []authsvc.Request
	for _, op := range []authsvc.Op{authsvc.OpPing, authsvc.OpEnroll, authsvc.OpLogin,
		authsvc.OpChange, authsvc.OpReset, authsvc.OpValidate} {
		reqs = append(reqs, authsvc.Request{
			Op:        op,
			User:      "alice",
			Clicks:    []dataset.Click{{X: 1, Y: 2}},
			NewClicks: []dataset.Click{{X: 3, Y: 4}},
			BudgetMs:  1500,
			Token:     "tok",
		})
	}
	return reqs
}

// goldenRequestBody is the JSON every client writes for goldenRequests'
// request of op.
func goldenRequestBody(op authsvc.Op) string {
	return `{"op":"` + string(op) + `","user":"alice","clicks":[{"x":1,"y":2}],"new_clicks":[{"x":3,"y":4}],"budget_ms":1500,"token":"tok"}`
}

const goldenReply = `{"v":1,"ok":true,"code":"ok"}`

// TestWireGoldenRequestsTCP: the frames the TCP client writes, read by
// a raw listener that answers each with a canned reply.
func TestWireGoldenRequestsTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frames := make(chan []byte)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			var prefix [4]byte
			if _, err := io.ReadFull(conn, prefix[:]); err != nil {
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(prefix[:]))
			if _, err := io.ReadFull(conn, body); err != nil {
				return
			}
			frames <- append(prefix[:], body...)
			if _, err := conn.Write(frame(goldenReply)); err != nil {
				return
			}
		}
	}()
	c, err := loadtest.TCPTransport(l.Addr().String(), 2*time.Second)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, req := range goldenRequests() {
		done := make(chan error, 1)
		go func() {
			resp, err := c.Do(context.Background(), req)
			if err == nil && resp.Code != authsvc.CodeOK {
				t.Errorf("%s: canned reply decoded as %+v", req.Op, resp)
			}
			done <- err
		}()
		var got []byte
		select {
		case got = <-frames:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no frame arrived", req.Op)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if want := frame(goldenRequestBody(req.Op)); !bytes.Equal(got, want) {
			t.Errorf("%s: TCP request frame\n got %q\nwant %q", req.Op, got, want)
		}
	}
}

// TestWireGoldenRequestsHTTP: the method, route, content type and body
// the HTTP client sends for each op.
func TestWireGoldenRequestsHTTP(t *testing.T) {
	type capture struct{ method, path, ctype, body string }
	seen := make(chan capture, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		seen <- capture{r.Method, r.URL.Path, r.Header.Get("Content-Type"), string(body)}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, goldenReply+"\n")
	}))
	defer ts.Close()
	c, err := loadtest.HTTPTransport(ts.URL)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, req := range goldenRequests() {
		resp, err := c.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if resp.Code != authsvc.CodeOK {
			t.Errorf("%s: canned reply decoded as %+v", req.Op, resp)
		}
		got := <-seen
		want := capture{http.MethodPost, "/v1/" + string(req.Op), "application/json", goldenRequestBody(req.Op) + "\n"}
		if req.Op == authsvc.OpPing {
			want = capture{http.MethodGet, "/v1/ping", "", ""}
		}
		if got != want {
			t.Errorf("%s: HTTP request\n got %+v\nwant %+v", req.Op, got, want)
		}
	}
}
