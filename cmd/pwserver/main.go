// Command pwserver serves a PassPoints vault over TCP (length-prefixed
// JSON frames) and HTTP:
//
//	pwserver -vault v.json -tcp :7700 -http :7780 -metrics :7790 -side 13 -lockout 10
//
// Both fronts are thin codecs over one authsvc pipeline: -maxconns is
// a single admission budget shared by TCP and HTTP (combined in-flight
// requests never exceed it) and -userrate adds a per-user token
// bucket. -queue bounds the admission wait queue (default 4x
// maxconns): past the per-priority watermarks, work is shed with fast
// "overloaded" responses (logins shed last) instead of queueing
// toward its deadline; -queue 0 queues without bound. -chaos
// injects deterministic faults (dev only) and -logjson emits one
// structured log line per request. -metrics starts the admin surface
// (Prometheus exposition at /metrics, plus the lockout reset) on its
// own address — bind it to loopback or a protected network, never the
// public one. The lockout bounds online dictionary attacks (§5.1):
// after N failed logins an account refuses further attempts until an
// administrative reset.
//
// -backend selects storage (see README.md for the migration recipe):
//
//	memory   (default) in-memory store partitioned -shards ways
//	         (0 = 32), loaded from a JSON snapshot at -vault
//	durable  crash-safe append-log store; -vault names a directory,
//	         -fsync tunes it, and every enroll, change, delete, and
//	         lockout write survives a kill -9
//
// The stateless session tier is on by default: a successful login
// response carries a signed expiring token, and POST /v1/validate (or
// the TCP validate op) checks it against in-memory keys with zero
// vault reads — the cheap steady-state complement to the deliberately
// expensive PassPoints login. -session-ttl sets the token lifetime (0
// disables the tier), -session-rotate enables periodic key rotation
// with a one-generation overlap window, and -session-alg picks
// ed25519 (default) or hmac. On the durable backend the keys and
// per-user revocation watermarks persist in the vault's replicated
// side table, so sessions survive restarts and failovers; password
// changes, resets, and lockouts revoke a user's outstanding tokens.
//
// -role turns on vault replication (durable backend only): a primary
// streams every shard's WAL to followers over -repl-listen, a
// follower (-role follower -repl-primary host:port) applies the
// stream and can be promoted at failover time with POST /v1/promote
// on the admin listener. Only the primary checks a password: a
// follower answers validate from its replicated session keys and
// redirects login, change and reset to the primary with not_primary.
// -repl-ack quorum withholds write acks until a follower's fsync
// covers them; see README.md for the full flag table and the failover
// runbook.
//
// SIGINT/SIGTERM drain in-flight connections before exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/session"
	"clickpass/internal/vault"
	"clickpass/internal/vault/repl"
)

func main() {
	var (
		vaultPath   = flag.String("vault", "vault.json", "vault file path")
		tcpAddr     = flag.String("tcp", ":7700", "TCP listen address (empty to disable)")
		httpAddr    = flag.String("http", "", "HTTP listen address (empty to disable)")
		metricsAddr = flag.String("metrics", "", "admin listen address serving GET /metrics and POST /v1/reset (bind to loopback; empty to disable)")
		imageW      = flag.Int("image-w", 451, "image width (pixels)")
		imageH      = flag.Int("image-h", 331, "image height (pixels)")
		side        = flag.Int("side", 13, "grid-square side (pixels)")
		schemeArg   = flag.String("scheme", "centered", "discretization scheme: centered or robust")
		iter        = flag.Int("iterations", 1000, "hash iterations")
		lockout     = flag.Int("lockout", authproto.DefaultLockout, "failed attempts before lockout")
		useTLS      = flag.Bool("tls", false, "wrap the TCP listener in TLS with an ephemeral self-signed certificate")
		backendArg  = flag.String("backend", "memory", "storage backend: memory (a JSON snapshot at -vault) or durable (a log directory at -vault)")
		shards      = flag.Int("shards", 0, "vault shard count (0 = 32; a durable directory keeps the count it was created with)")
		fsyncArg    = flag.String("fsync", "always", "durable backend sync policy: always, interval, or never")
		migrateFrom = flag.String("migrate-from", "", "durable backend: JSON snapshot to import into an empty log directory")
		sessionTTL  = flag.Duration("session-ttl", time.Hour, "session token lifetime; 0 disables the session tier (no tokens minted, validate refused)")
		sessionRot  = flag.Duration("session-rotate", 0, "session key rotation interval; tokens stay valid for one generation of overlap (0 = no automatic rotation)")
		sessionAlg  = flag.String("session-alg", "ed25519", "session token signature algorithm: ed25519 or hmac")
		maxConns    = flag.Int("maxconns", authproto.DefaultMaxConns, "max in-flight requests across all fronts (and TCP connection pool size)")
		userRate    = flag.Float64("userrate", 0, "per-user request rate limit in req/s across all fronts (0 = off)")
		userBurst   = flag.Int("userburst", 5, "per-user burst budget for -userrate")
		queue       = flag.Int("queue", -1, "overload policy: bounded admission wait queue depth; low-priority ops shed at watermarks (-1 = 4x maxconns, 0 = unbounded queueing)")
		retryAfter  = flag.Duration("retry-after", authsvc.DefaultRetryAfter, "retry hint returned with shed (overloaded) responses")
		chaos       = flag.String("chaos", "", "dev fault injection, e.g. seed=7,err=0.01,latrate=0.05,lat=25ms (empty = off)")
		logJSON     = flag.Bool("logjson", false, "emit one structured JSON log line per request to stderr")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget on SIGINT/SIGTERM")

		roleArg       = flag.String("role", "", "replication role: primary or follower (empty = standalone; requires -backend durable)")
		replListen    = flag.String("repl-listen", "", "replication listen address; where followers connect on a primary, and where a promoted follower will accept its own followers")
		replPrimary   = flag.String("repl-primary", "", "follower: the primary's replication address to stream from")
		replAck       = flag.String("repl-ack", "quorum", "primary ack mode: quorum (ack writes only after a follower fsync covers them) or async")
		replAdvertise = flag.String("repl-advertise", "", "client-facing address advertised to peers for not_primary redirects")
	)
	flag.Parse()

	var (
		scheme core.Scheme
		err    error
	)
	switch *schemeArg {
	case "centered":
		scheme, err = core.NewCentered(*side)
	case "robust":
		scheme, err = core.NewRobust2D(*side, core.MostCentered, 0)
	default:
		err = fmt.Errorf("unknown scheme %q", *schemeArg)
	}
	if err != nil {
		fatal(err)
	}
	store, backend, closeStore, err := openBackend(*backendArg, *vaultPath, *shards, *fsyncArg, *migrateFrom)
	if err != nil {
		fatal(err)
	}
	dur, _ := store.(*vault.Durable)
	var node *repl.Node
	if *roleArg != "" {
		if dur == nil {
			fatal(fmt.Errorf("-role %s requires -backend durable (got %s)", *roleArg, backend))
		}
		role, err := repl.ParseRole(*roleArg)
		if err != nil {
			fatal(err)
		}
		ack, err := repl.ParseAckMode(*replAck)
		if err != nil {
			fatal(err)
		}
		node, err = repl.New(dur, role, repl.Options{
			Listen:    *replListen,
			Primary:   *replPrimary,
			Advertise: *replAdvertise,
			Ack:       ack,
		})
		if err != nil {
			fatal(err)
		}
		// The node fronts the store for every request: role guards and
		// quorum waits live in that wrapper.
		store = node
		inner := closeStore
		closeStore = func() error {
			node.Close()
			return inner()
		}
		switch role {
		case repl.RolePrimary:
			fmt.Printf("pwserver: replication PRIMARY on %s (ack=%s, epoch %d)\n", node.ReplAddr(), ack, node.Epoch())
		case repl.RoleFollower:
			fmt.Printf("pwserver: replication FOLLOWER of %s (epoch %d; promote via POST /v1/promote on -metrics)\n", *replPrimary, node.Epoch())
		}
	}
	cfg := passpoints.Config{
		Image:      geom.Size{W: *imageW, H: *imageH},
		Clicks:     passpoints.DefaultClicks,
		Scheme:     scheme,
		Iterations: *iter,
	}
	srv, err := authproto.NewServer(cfg, store, *lockout)
	if err != nil {
		fatal(err)
	}
	if dur != nil {
		srv.RegisterMetrics(vaultHealthMetrics(dur))
		srv.RegisterAdmin("/v1/reopen-shard", reopenShardHandler(dur))
	}
	var sessMgr *session.Manager
	if *sessionTTL > 0 {
		alg, err := session.ParseAlg(*sessionAlg)
		if err != nil {
			fatal(err)
		}
		// The session tier persists through the replication node when
		// there is one (role guard in front: a follower adopts keys
		// instead of inventing them), else straight through the durable
		// store; the in-memory backend leaves it soft-state.
		var kv session.KV
		switch {
		case node != nil:
			kv = node
		case dur != nil:
			kv = dur
		}
		sessMgr, err = session.New(session.Options{
			Alg:    alg,
			TTL:    *sessionTTL,
			Rotate: *sessionRot,
			Store:  kv,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "pwserver: "+format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		if dur != nil {
			// Replicated key and revocation writes flow into the manager
			// as they apply; the second Reseed closes the window between
			// New's initial load and the watch installation.
			dur.SetKVWatch(sessMgr.ApplyKV)
			if err := sessMgr.Reseed(); err != nil {
				fatal(err)
			}
		}
		sessMgr.Start()
		srv.SetSession(sessMgr)
		srv.RegisterMetrics(sessMgr.WritePrometheus)
		srv.RegisterAdmin("/v1/session/rotate", sessionRotateHandler(sessMgr))
		rotateDesc := "manual rotation only"
		if *sessionRot > 0 {
			rotateDesc = fmt.Sprintf("rotating every %s", *sessionRot)
		}
		fmt.Printf("pwserver: session tier on (%s, ttl %s, %s)\n", alg, *sessionTTL, rotateDesc)
	}
	if node != nil {
		srv.RegisterMetrics(replMetrics(node))
		srv.RegisterAdmin("/v1/promote", promoteHandler(node, sessMgr))
	}
	srv.SetMaxConns(*maxConns)
	if *userRate > 0 {
		srv.SetUserRate(*userRate, *userBurst)
	}
	queueDepth := *queue
	if queueDepth < 0 {
		queueDepth = 4 * *maxConns
	}
	if queueDepth > 0 {
		srv.SetOverload(authsvc.OverloadPolicy{Queue: queueDepth, RetryAfter: *retryAfter})
		fmt.Printf("pwserver: overload policy on (queue %d, normal/low sheds at %d/%d waiting)\n",
			queueDepth, int(float64(queueDepth)*authsvc.DefaultNormalMark), int(float64(queueDepth)*authsvc.DefaultLowMark))
	}
	if *chaos != "" {
		faults, err := authsvc.ParseFaultSpec(*chaos)
		if err != nil {
			fatal(err)
		}
		srv.SetFaults(faults)
		fmt.Printf("pwserver: CHAOS MODE: %s (dev only — injected faults are live)\n", *chaos)
	}
	if *logJSON {
		srv.SetLogWriter(os.Stderr)
	}
	if *tcpAddr == "" && *httpAddr == "" {
		fatal(fmt.Errorf("nothing to serve: both -tcp and -http are empty"))
	}
	errc := make(chan error, 3)
	if *tcpAddr != "" {
		l, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			fatal(err)
		}
		if *useTLS {
			cert, err := authproto.SelfSignedCert([]string{"127.0.0.1", "localhost"}, 365*24*time.Hour)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("pwserver: TLS on %s (%s %dx%d, lockout %d, %s vault, %d shared in-flight; self-signed cert %x...)\n",
				l.Addr(), scheme.Name(), *side, *side, *lockout, backend, *maxConns, cert.Certificate[0][:8])
			go func() { errc <- srv.ServeTLS(l, cert) }()
		} else {
			fmt.Printf("pwserver: TCP on %s (%s %dx%d, lockout %d, %s vault, %d shared in-flight)\n",
				l.Addr(), scheme.Name(), *side, *side, *lockout, backend, *maxConns)
			go func() { errc <- srv.Serve(l) }()
		}
	}
	var httpSrv *http.Server
	if *httpAddr != "" {
		fmt.Printf("pwserver: HTTP on %s (same %d-request admission limit as TCP)\n", *httpAddr, *maxConns)
		httpSrv = &http.Server{Addr: *httpAddr, Handler: srv.HTTPHandler()}
		go func() {
			if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
				errc <- err
			}
		}()
	}
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		fmt.Printf("pwserver: admin (metrics + lockout reset) on %s\n", *metricsAddr)
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: srv.AdminHandler()}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != http.ErrServerClosed {
				errc <- err
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("pwserver: %s — draining (up to %s)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Drain both front ends; "drained" must mean every in-flight
		// request, TCP and HTTP, got its response.
		err := srv.Shutdown(ctx)
		if httpSrv != nil {
			if herr := httpSrv.Shutdown(ctx); err == nil {
				err = herr
			}
		}
		if metricsSrv != nil {
			_ = metricsSrv.Close()
		}
		if sessMgr != nil {
			sessMgr.Close()
		}
		// Flush and release the store only after the drain: "drained"
		// means every acked response's mutation is in the log.
		if cerr := closeStore(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pwserver: drain incomplete:", err)
			os.Exit(1)
		}
		fmt.Println("pwserver: drained")
	}
}

// openBackend builds the selected vault.Store. It returns the store, a
// human-readable description for the startup banner, and a close func
// (a no-op for the in-memory store, a log flush-and-close for the
// durable one).
func openBackend(backend, path string, shards int, fsync string, migrateFrom string) (vault.Store, string, func() error, error) {
	switch backend {
	case "memory":
		s, err := vault.OpenSharded(path, shards)
		if err != nil {
			return nil, "", nil, err
		}
		return s, fmt.Sprintf("in-memory %d-shard", s.Shards()), func() error { return nil }, nil
	case "durable":
		policy, err := vault.ParseSyncPolicy(fsync)
		if err != nil {
			return nil, "", nil, err
		}
		d, err := vault.OpenDurable(path, vault.DurableOptions{Shards: shards, Sync: policy})
		if err != nil {
			return nil, "", nil, err
		}
		if migrateFrom != "" {
			if d.Len() == 0 {
				if err := d.ImportJSON(migrateFrom); err != nil {
					d.Close()
					// A failed import may leave a partial WAL; a silent
					// retry would then skip migration (non-empty store)
					// and serve half a vault, so say how to recover.
					return nil, "", nil, fmt.Errorf("migrating %s: %w (the log directory %s may hold a partial import; remove it and retry)", migrateFrom, err, path)
				}
				fmt.Printf("pwserver: migrated %d records from %s into %s\n", d.Len(), migrateFrom, path)
			} else {
				fmt.Printf("pwserver: skipping -migrate-from %s: %s already holds %d records\n", migrateFrom, path, d.Len())
			}
		}
		return d, fmt.Sprintf("durable %d-shard (fsync=%s)", d.Shards(), policy), d.Close, nil
	default:
		return nil, "", nil, fmt.Errorf("unknown backend %q (want memory or durable)", backend)
	}
}

// vaultHealthMetrics exposes per-shard health of the durable store on
// the admin /metrics surface: one vault_shard_up gauge per shard (0 =
// fail-stopped, reopen via POST /v1/reopen-shard) plus the persisted
// replication epoch.
func vaultHealthMetrics(d *vault.Durable) func(io.Writer) {
	return func(w io.Writer) {
		h := d.Health()
		failed := make(map[int]bool, len(h.Failed))
		for _, i := range h.Failed {
			failed[i] = true
		}
		fmt.Fprintf(w, "# HELP vault_shard_up Durable vault shard health (0 = fail-stopped, refusing writes).\n")
		fmt.Fprintf(w, "# TYPE vault_shard_up gauge\n")
		for i := 0; i < h.Shards; i++ {
			up := 1
			if failed[i] {
				up = 0
			}
			fmt.Fprintf(w, "vault_shard_up{shard=\"%d\"} %d\n", i, up)
		}
		fmt.Fprintf(w, "# HELP vault_epoch Persisted replication epoch of the vault.\n")
		fmt.Fprintf(w, "# TYPE vault_epoch gauge\n")
		fmt.Fprintf(w, "vault_epoch %d\n", d.Epoch())
	}
}

// replMetrics exposes the replication node's state on /metrics: role,
// epoch, fencing, time since the last primary contact, retained
// stream bytes, and per-follower replication lag.
func replMetrics(n *repl.Node) func(io.Writer) {
	return func(w io.Writer) {
		st := n.Stats()
		fmt.Fprintf(w, "# HELP repl_role Replication role of this node (the labeled role is 1).\n")
		fmt.Fprintf(w, "# TYPE repl_role gauge\n")
		fmt.Fprintf(w, "repl_role{role=%q} 1\n", st.Role)
		fmt.Fprintf(w, "# HELP repl_epoch Current replication epoch.\n")
		fmt.Fprintf(w, "# TYPE repl_epoch gauge\n")
		fmt.Fprintf(w, "repl_epoch %d\n", st.Epoch)
		fmt.Fprintf(w, "# HELP repl_fenced Whether this node is a deposed primary refusing writes.\n")
		fmt.Fprintf(w, "# TYPE repl_fenced gauge\n")
		fenced := 0
		if st.Fenced {
			fenced = 1
		}
		fmt.Fprintf(w, "repl_fenced %d\n", fenced)
		if st.StaleMs >= 0 {
			fmt.Fprintf(w, "# HELP repl_staleness_ms Milliseconds since the last message from the primary.\n")
			fmt.Fprintf(w, "# TYPE repl_staleness_ms gauge\n")
			fmt.Fprintf(w, "repl_staleness_ms %d\n", st.StaleMs)
		}
		fmt.Fprintf(w, "# HELP repl_retained_bytes Bytes of committed frames the primary retains until a follower acknowledges them.\n")
		fmt.Fprintf(w, "# TYPE repl_retained_bytes gauge\n")
		fmt.Fprintf(w, "repl_retained_bytes %d\n", st.RetainedBytes)
		if len(st.Followers) > 0 {
			fmt.Fprintf(w, "# HELP repl_follower_lag_records Committed records not yet acknowledged, per follower.\n")
			fmt.Fprintf(w, "# TYPE repl_follower_lag_records gauge\n")
			for _, f := range st.Followers {
				fmt.Fprintf(w, "repl_follower_lag_records{follower=%q} %d\n", f.Addr, f.LagRecords)
			}
		}
	}
}

// promoteHandler serves POST /v1/promote on the admin listener: the
// failover lever that turns this follower into the primary at a
// durably advanced epoch. The response carries the new epoch; the old
// primary — if still alive — is fenced best-effort. The serving layer
// needs no reload: its first login as primary loads the lockout
// counters the replicated log holds, so a guesser does not get a
// fresh attempt budget out of a failover. After the role flip the
// session tier reseeds its keys and revocation watermarks from the
// replicated side table, so tokens minted by the old primary keep
// validating (and newly writable storage lets it create a first key
// if the pair never minted one).
func promoteHandler(n *repl.Node, sess *session.Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		epoch, err := n.Promote()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if sess != nil {
			if err := sess.Reseed(); err != nil {
				fmt.Fprintf(os.Stderr, "pwserver: session reseed after promote: %v\n", err)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"ok": true, "epoch": epoch})
	})
}

// sessionRotateHandler serves POST /v1/session/rotate on the admin
// listener: mint signing material forward one generation, on the
// operator's schedule rather than the -session-rotate timer. The old
// generation keeps verifying for one more rotation (the overlap
// window), so rotation is invisible to holders of live tokens. On a
// follower the underlying persist is refused and the rotation fails
// loudly — keys are only ever minted where they can be replicated
// from.
func sessionRotateHandler(sess *session.Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := sess.Rotate(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		gen, _ := sess.Generations()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"ok": true, "generation": gen})
	})
}

// reopenShardHandler serves POST /v1/reopen-shard {"shard": N}: the
// supervised recovery path for a fail-stopped shard. Reopen re-runs
// crash recovery on the shard's log; on success the shard serves
// again from its last acked state, on failure it stays fail-stopped
// and the error says why.
func reopenShardHandler(d *vault.Durable) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var body struct {
			Shard int `json:"shard"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, "body must be {\"shard\": N}: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := d.ReopenShard(body.Shard); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"ok": true, "shard": body.Shard})
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pwserver:", err)
	os.Exit(1)
}
