// Webauth: a graphical-password login service over HTTP — the
// deployment scenario the paper's schemes exist for. It starts the
// authentication server (internal/authproto) on a loopback listener,
// enrolls a user, then exercises the JSON API as a client: good login,
// near-miss login, and an online guessing burst that trips the
// account lockout (§5.1's defense).
//
// Run with -listen :8080 to keep the server running for manual use:
//
//	curl -X POST localhost:8080/v1/login -d '{"user":"demo","clicks":[...]}'
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"

	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

func main() {
	listen := flag.String("listen", "", "keep serving on this address instead of exiting")
	flag.Parse()

	scheme, err := core.NewCentered(13)
	if err != nil {
		log.Fatal(err)
	}
	cfg := passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: 1000,
	}
	srv, err := authproto.NewServer(cfg, vault.NewSharded(0), 3)
	if err != nil {
		log.Fatal(err)
	}

	addr := *listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := http.Serve(l, srv.HTTPHandler()); err != nil {
			log.Print(err)
		}
	}()
	base := "http://" + l.Addr().String()
	fmt.Printf("graphical-password HTTP service on %s\n\n", base)

	post := func(path string, body map[string]interface{}) (int, authsvc.Response) {
		data, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out authsvc.Response
		raw, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(raw, &out)
		return resp.StatusCode, out
	}
	password := [][2]int{{52, 70}, {246, 74}, {74, 168}, {330, 268}, {180, 90}}
	clicks := func(dx int) []map[string]int {
		out := make([]map[string]int, len(password))
		for i, p := range password {
			out[i] = map[string]int{"x": p[0] + dx, "y": p[1]}
		}
		return out
	}

	status, _ := post("/v1/enroll", map[string]interface{}{"user": "demo", "clicks": clicks(0)})
	fmt.Printf("POST /v1/enroll                      -> %d\n", status)
	status, _ = post("/v1/login", map[string]interface{}{"user": "demo", "clicks": clicks(5)})
	fmt.Printf("POST /v1/login (5px off: tolerated)  -> %d\n", status)
	status, resp := post("/v1/login", map[string]interface{}{"user": "demo", "clicks": clicks(9)})
	fmt.Printf("POST /v1/login (9px off: rejected)   -> %d (%d attempts left)\n", status, resp.Remaining)

	// An online guesser burns through the lockout budget.
	for i := 0; ; i++ {
		status, resp = post("/v1/login", map[string]interface{}{"user": "demo", "clicks": clicks(50 + i)})
		fmt.Printf("POST /v1/login (guess %d)             -> %d\n", i+1, status)
		if resp.Locked() {
			fmt.Println("account locked: online dictionary attack stopped by rate limiting (§5.1)")
			break
		}
		if i > 5 {
			log.Fatal("lockout never triggered")
		}
	}
	// Even the correct password is refused now.
	status, _ = post("/v1/login", map[string]interface{}{"user": "demo", "clicks": clicks(0)})
	fmt.Printf("POST /v1/login (correct, but locked) -> %d\n", status)

	// The same service through the unified typed client: transports are
	// interchangeable behind authsvc.Client, and responses carry a
	// typed code instead of flags.
	c := authproto.NewHTTPClient(base, nil)
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		log.Fatal(err)
	}
	typedClicks := make([]dataset.Click, len(password))
	for i, p := range password {
		typedClicks[i] = dataset.Click{X: p[0], Y: p[1]}
	}
	lockResp, err := c.Login(ctx, "demo", typedClicks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unified client login code             -> %q (%s)\n", lockResp.Code, lockResp.Err)

	if *listen != "" {
		fmt.Println("\nserving until interrupted...")
		select {}
	}
}
