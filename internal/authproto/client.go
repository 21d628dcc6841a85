package authproto

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"clickpass/internal/authsvc"
)

// This file implements authsvc.Client — the unified, transport-
// agnostic client surface — over both wire codecs. Tests and loadtest
// take an authsvc.Client and run identically against either front.

// Dial connects the framed-TCP client to addr. The client is not safe
// for concurrent use; requests are serialized on one connection. A
// context deadline on a call bounds that call's whole network exchange.
func Dial(addr string, timeout time.Duration) (authsvc.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("authproto: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient returns the framed-TCP client over an established
// connection (a TLS connection from DialTLS, net.Pipe in tests).
func NewClient(conn net.Conn) authsvc.Client {
	c := &tcpClient{conn: conn}
	c.Ops = authsvc.Ops{Doer: c}
	return c
}

type tcpClient struct {
	authsvc.Ops
	conn net.Conn
	// broken marks a connection whose request/response lockstep is no
	// longer trustworthy (a failed or timed-out exchange may have left
	// an unread response frame in flight); every later call refuses
	// rather than risk pairing a request with a stale response.
	broken bool
}

// stampBudget propagates the context deadline as the request's wire
// budget (budget_ms) when the caller did not set one explicitly: the
// server then drops the request once the caller has given up —
// including time spent in the admission queue — instead of serving it
// into the void. An already-expired deadline stamps nothing; the
// entry ctx.Err() checks refuse the call first.
func stampBudget(ctx context.Context, req *authsvc.Request) {
	if req.BudgetMs != 0 {
		return
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.BudgetMs = int(ms)
		}
	}
}

func (c *tcpClient) Do(ctx context.Context, req authsvc.Request) (authsvc.Response, error) {
	if err := ctx.Err(); err != nil {
		return authsvc.Response{}, err
	}
	if c.broken {
		return authsvc.Response{}, fmt.Errorf("authproto: connection out of sync after a failed exchange; dial a new client")
	}
	stampBudget(ctx, &req)
	// The frame exchange honors the context's deadline via the
	// connection deadline; cancellation without a deadline falls back
	// to the entry check above.
	if deadline, ok := ctx.Deadline(); ok {
		_ = c.conn.SetDeadline(deadline)
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	var resp authsvc.Response
	err := writeFrame(c.conn, req)
	if err == nil {
		err = readFrame(c.conn, &resp)
	}
	if err != nil {
		c.broken = true
		_ = c.conn.Close()
		return authsvc.Response{}, err
	}
	return resp, nil
}

func (c *tcpClient) Close() error { return c.conn.Close() }

// NewHTTPClient returns the unified client over the HTTP/JSON codec.
// baseURL is the server root (e.g. "http://127.0.0.1:7780"); hc may be
// nil for http.DefaultClient. Unlike the TCP client, the result is
// safe for concurrent use — the underlying http.Client pools
// connections.
func NewHTTPClient(baseURL string, hc *http.Client) authsvc.Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &httpClient{base: strings.TrimRight(baseURL, "/"), hc: hc}
	c.Ops = authsvc.Ops{Doer: c}
	return c
}

type httpClient struct {
	authsvc.Ops
	base string
	hc   *http.Client
}

func (c *httpClient) Do(ctx context.Context, req authsvc.Request) (authsvc.Response, error) {
	stampBudget(ctx, &req)
	var (
		httpReq *http.Request
		err     error
	)
	path := c.base + "/v1/" + string(req.Op)
	if req.Op == authsvc.OpPing {
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	} else {
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(req); err != nil {
			return authsvc.Response{}, fmt.Errorf("authproto: encoding request: %w", err)
		}
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodPost, path, &body)
		if httpReq != nil {
			httpReq.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return authsvc.Response{}, fmt.Errorf("authproto: building request: %w", err)
	}
	httpResp, err := c.hc.Do(httpReq)
	if err != nil {
		return authsvc.Response{}, err
	}
	defer httpResp.Body.Close()
	var resp authsvc.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return authsvc.Response{}, fmt.Errorf("authproto: decoding response (status %d): %w",
			httpResp.StatusCode, err)
	}
	return resp, nil
}

func (c *httpClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
