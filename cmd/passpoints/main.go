// Command passpoints manages a local graphical-password vault:
//
//	passpoints -vault v.json enroll -user alice -clicks "30,40;120,300;222,51;400,200;77,160"
//	passpoints -vault v.json verify -user alice -clicks "31,39;121,299;224,50;399,204;76,161"
//	passpoints -vault v.json list
//
// The vault file is the JSON "password file" an offline attacker would
// steal: clear grid identifiers, salts, iteration counts and digests —
// never click coordinates.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"clickpass"
	"clickpass/internal/vault"
)

func main() {
	var (
		vaultPath = flag.String("vault", "vault.json", "vault file path")
		imageW    = flag.Int("image-w", 451, "image width (pixels)")
		imageH    = flag.Int("image-h", 331, "image height (pixels)")
		side      = flag.Int("side", 13, "grid-square side (pixels)")
		scheme    = flag.String("scheme", "centered", "discretization scheme: centered or robust")
		iter      = flag.Int("iterations", 1000, "hash iterations")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	auth, err := clickpass.New(clickpass.Options{
		ImageW: *imageW, ImageH: *imageH,
		SquareSide: *side, Scheme: clickpass.Kind(*scheme),
		HashIterations: *iter,
	})
	if err != nil {
		fatal(err)
	}
	v, err := vault.OpenSharded(*vaultPath, 0)
	if err != nil {
		fatal(err)
	}
	switch args[0] {
	case "enroll":
		runEnroll(auth, v, *vaultPath, args[1:])
	case "verify":
		runVerify(auth, v, args[1:])
	case "list":
		runList(v)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: passpoints [flags] enroll|verify|list [-user U -clicks \"x,y;x,y;...\"]")
	flag.PrintDefaults()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "passpoints:", err)
	os.Exit(1)
}

func parseOp(args []string) (user string, clicks []clickpass.Point) {
	fs := flag.NewFlagSet("op", flag.ExitOnError)
	userF := fs.String("user", "", "account name")
	clicksF := fs.String("clicks", "", "click sequence \"x,y;x,y;...\"")
	_ = fs.Parse(args)
	if *userF == "" || *clicksF == "" {
		fatal(fmt.Errorf("-user and -clicks are required"))
	}
	pts, err := parseClicks(*clicksF)
	if err != nil {
		fatal(err)
	}
	return *userF, pts
}

func parseClicks(s string) ([]clickpass.Point, error) {
	var pts []clickpass.Point
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		xs, ys, ok := strings.Cut(part, ",")
		if !ok {
			return nil, fmt.Errorf("bad click %q (want x,y)", part)
		}
		x, err := strconv.Atoi(strings.TrimSpace(xs))
		if err != nil {
			return nil, fmt.Errorf("bad x in %q: %v", part, err)
		}
		y, err := strconv.Atoi(strings.TrimSpace(ys))
		if err != nil {
			return nil, fmt.Errorf("bad y in %q: %v", part, err)
		}
		pts = append(pts, clickpass.Point{X: x, Y: y})
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("no clicks given")
	}
	return pts, nil
}

func runEnroll(auth *clickpass.Authenticator, v *vault.Sharded, path string, args []string) {
	user, clicks := parseOp(args)
	rec, err := auth.Enroll(user, clicks)
	if err != nil {
		fatal(err)
	}
	if err := v.Put(rec); err != nil {
		fatal(err)
	}
	if err := v.SaveTo(path); err != nil {
		fatal(err)
	}
	fmt.Printf("enrolled %q (%s, tolerance ±%.1fpx); vault saved to %s\n",
		user, rec.Kind, auth.GuaranteedTolerancePx(), path)
}

func runVerify(auth *clickpass.Authenticator, v *vault.Sharded, args []string) {
	user, clicks := parseOp(args)
	rec, err := v.Get(user)
	if err != nil {
		fatal(err)
	}
	ok, err := auth.Verify(rec, clicks)
	if err != nil {
		fatal(err)
	}
	if ok {
		fmt.Println("ACCEPTED")
		return
	}
	fmt.Println("REJECTED")
	os.Exit(1)
}

func runList(v *vault.Sharded) {
	for _, rec := range v.All() {
		fmt.Printf("%-20s %-9s %dx%d grid, %d hash iterations\n",
			rec.User, rec.Kind, rec.SquareSidePx, rec.SquareSidePx, rec.Iterations)
	}
	if v.Len() == 0 {
		fmt.Println("(vault is empty)")
	}
}
