package authproto

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"clickpass/internal/authsvc"
)

// HTTPHandler exposes the service over HTTP:
//
//	POST /v1/enroll  {"user": ..., "clicks": [{"x":..,"y":..}, ...]}
//	POST /v1/login   same body
//	POST /v1/change  adds "new_clicks"
//	GET  /v1/ping
//
// Responses are the same JSON as the TCP protocol's, and every
// request — ping included — runs through the same authsvc pipeline as
// the TCP front, so both transports share one admission limiter and
// one metrics registry. Login failures return 401, lockouts and rate
// limits 429, malformed requests 400, duplicate enrollments 409,
// admission/deadline refusals 503.
//
// The administrative lockout reset is deliberately NOT routed here:
// an unauthenticated public reset would let an online guesser clear
// the failed-attempt counter and defeat the §5.1 lockout. It lives on
// AdminHandler, which deployments bind to a separate, non-public
// listener (pwserver's -metrics address).
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ping", func(w http.ResponseWriter, r *http.Request) {
		resp := s.handler.Handle(r.Context(), authsvc.Request{Op: authsvc.OpPing})
		writeResponse(w, statusFor(resp), resp)
	})
	mux.HandleFunc("/v1/enroll", s.httpOp(authsvc.OpEnroll))
	mux.HandleFunc("/v1/login", s.httpOp(authsvc.OpLogin))
	mux.HandleFunc("/v1/change", s.httpOp(authsvc.OpChange))
	mux.HandleFunc("/v1/validate", s.httpOp(authsvc.OpValidate))
	return mux
}

// AdminHandler exposes the operator surface — separate from the
// public HTTPHandler so deployments can bind it to a loopback or
// otherwise protected listener:
//
//	POST /v1/reset  {"user": ...}   clear an account's lockout
//	GET  /metrics                   Prometheus text exposition
//
// /metrics is the pipeline's registry (authsvc.Metrics.WritePrometheus)
// followed by every RegisterMetrics writer; it is the server's only
// metrics format. Routes added with RegisterAdmin (pwserver's
// replication promote and shard reopen) are mounted alongside.
//
// Reset requests run through the same pipeline as everything else
// (admitted, counted, deadline-bounded).
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/reset", s.httpOp(authsvc.OpReset))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.WritePrometheus(w)
		for _, f := range s.extraMetrics {
			f(w)
		}
	})
	for pattern, h := range s.adminRoutes {
		mux.Handle(pattern, h)
	}
	return mux
}

// RegisterAdmin mounts h at pattern on handlers returned by later
// AdminHandler calls. It is the hook pwserver uses to expose
// replication operations (failover promote, supervised shard reopen)
// on the protected admin listener without this package importing the
// replication layer. Call before AdminHandler; not safe to call
// concurrently with it.
func (s *Server) RegisterAdmin(pattern string, h http.Handler) {
	if s.adminRoutes == nil {
		s.adminRoutes = make(map[string]http.Handler)
	}
	s.adminRoutes[pattern] = h
}

// RegisterMetrics appends f's output to the Prometheus exposition
// served at /metrics on the admin surface — vault shard health,
// replication role and lag, anything the serving pipeline itself
// cannot see. Call before AdminHandler; not safe to call concurrently
// with it.
func (s *Server) RegisterMetrics(f func(io.Writer)) {
	s.extraMetrics = append(s.extraMetrics, f)
}

// decodeHTTPRequest decodes one HTTP/JSON request body into the
// service request for op. It is the whole HTTP decode path — shared by
// the handler, the fuzzer, and the TCP/HTTP round-trip property test —
// so the two transports cannot drift in how they read a request.
func decodeHTTPRequest(op authsvc.Op, body io.Reader) (authsvc.Request, error) {
	var req authsvc.Request
	dec := json.NewDecoder(io.LimitReader(body, MaxFrame+1))
	if err := dec.Decode(&req); err != nil {
		return authsvc.Request{}, fmt.Errorf("authproto: malformed request body: %w", err)
	}
	// Exactly one JSON value, like a TCP frame: json.Unmarshal on a
	// frame body rejects trailing bytes, so the streaming decoder must
	// too or the transports drift.
	if _, err := dec.Token(); err != io.EOF {
		return authsvc.Request{}, fmt.Errorf("authproto: trailing data after request body")
	}
	req.Op = op
	return req, nil
}

func (s *Server) httpOp(op authsvc.Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeResponse(w, http.StatusMethodNotAllowed, invalid("POST required"))
			return
		}
		req, err := decodeHTTPRequest(op, http.MaxBytesReader(w, r.Body, MaxFrame))
		if err != nil {
			writeResponse(w, http.StatusBadRequest, invalid("malformed request body"))
			return
		}
		resp := s.handler.Handle(r.Context(), req)
		writeResponse(w, statusFor(resp), resp)
	}
}

// setRetryAfter surfaces an overload shed's retry hint as the
// standard Retry-After header (whole seconds, rounded up so "500ms"
// does not become "retry immediately").
func setRetryAfter(w http.ResponseWriter, resp authsvc.Response) {
	if resp.Code != authsvc.CodeOverloaded || resp.RetryAfterMs <= 0 {
		return
	}
	secs := (resp.RetryAfterMs + 999) / 1000
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// statusFor maps a typed service outcome to its HTTP status.
func statusFor(resp authsvc.Response) int {
	switch resp.Code {
	case authsvc.CodeOK:
		return http.StatusOK
	case authsvc.CodeLocked, authsvc.CodeThrottled:
		return http.StatusTooManyRequests
	case authsvc.CodeDenied:
		return http.StatusUnauthorized
	case authsvc.CodeExists:
		return http.StatusConflict
	case authsvc.CodeUnavailable, authsvc.CodeOverloaded:
		return http.StatusServiceUnavailable
	case authsvc.CodeNotPrimary:
		// 421: this server cannot produce an authoritative response;
		// the body's primary field says who can.
		return http.StatusMisdirectedRequest
	case authsvc.CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeResponse writes every reply of the HTTP front: any Retry-After,
// the status, and the same JSON the TCP front frames, plus a newline.
func writeResponse(w http.ResponseWriter, status int, resp authsvc.Response) {
	setRetryAfter(w, resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wireResponse(resp))
}
