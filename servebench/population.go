package main

import (
	"fmt"

	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/imagegen"
	"clickpass/internal/par"
	"clickpass/internal/passpoints"
	"clickpass/internal/rng"
	"clickpass/internal/scenario"
	"clickpass/internal/study"
	"clickpass/internal/vault"
)

// The serving configuration, as pwserver wires it by default.
const (
	conns      = 2 // closed-loop callers: a 2-connection pool on a 2-CPU box
	lockout    = authsvc.DefaultLockout
	iterations = 1000
	sidePx     = 13
)

// connFor pins an account to the one connection that carries all of
// its requests. Per-account order is then the order of one
// connection's script, so every expected outcome, lockouts included,
// is deterministic. The tracer uses the same rule to link a store or
// session call to the request in flight.
func connFor(user string) int { return int(vault.FNV32a(user) % conns) }

// account is one enrolled user as the model sees it. Only its own
// connection's goroutine touches it during a run.
type account struct {
	name     string
	conn     int
	image    int
	clicks   []dataset.Click // current password
	tokens   []core.Token    // its enrollment under the scheme
	failures int             // failed attempts since the last success
	revoked  bool            // outstanding session tokens are revoked
	written  bool            // an enroll or change was sent for it
	cracked  bool            // an attacker's guess was accepted
}

// attempt is one recorded login attempt of the field study.
type attempt struct {
	acc    *account
	clicks []dataset.Click
}

// population is everything a run's inputs are made from, generated
// from the seed: field-study accounts on both study images with their
// re-entry attempts, fresh passwords for enrolls and changes, and the
// saliency-ordered guesses of the §5.1 online attack. It doubles as the
// in-process model every response is checked against.
type population struct {
	cfg      passpoints.Config
	scheme   core.Scheme
	accounts []*account
	logins   [conns][]attempt
	fresh    [][]dataset.Click
	guesses  [][][]dataset.Click // per image, most salient first
	created  [conns][]*account   // accounts enrolled during the run
	rngs     [conns]*rng.Source
	nextName [conns]int
}

// newPopulation generates the population for seed with n accounts,
// half on each study image.
func newPopulation(seed uint64, n int) (*population, error) {
	scheme, err := core.NewCentered(sidePx)
	if err != nil {
		return nil, err
	}
	p := &population{
		cfg: passpoints.Config{
			Image:      imagegen.StudySize,
			Clicks:     passpoints.DefaultClicks,
			Scheme:     scheme,
			Iterations: iterations,
		},
		scheme: scheme,
	}
	gallery := imagegen.Gallery()
	for i, img := range gallery {
		fc := study.FieldConfig(img, seed+uint64(i))
		fc.Passwords = n / len(gallery)
		field, err := study.Run(fc)
		if err != nil {
			return nil, err
		}
		byID := make(map[int]*account, len(field.Passwords))
		for _, pw := range field.Passwords {
			a := p.newAccount(scenario.AccountName(pw.ID), i, pw.Clicks)
			p.accounts = append(p.accounts, a)
			byID[pw.ID] = a
		}
		for _, l := range field.Logins {
			a := byID[l.PasswordID]
			p.logins[a.conn] = append(p.logins[a.conn], attempt{acc: a, clicks: l.Clicks})
		}

		fc = study.FieldConfig(img, seed+10+uint64(i))
		fc.Passwords = n / len(gallery)
		fc.LoginsPerPassword = 0
		fresh, err := study.Run(fc)
		if err != nil {
			return nil, err
		}
		for _, pw := range fresh.Passwords {
			p.fresh = append(p.fresh, pw.Clicks)
		}

		lab, err := study.Run(study.LabConfig(img, seed+100+uint64(i)))
		if err != nil {
			return nil, err
		}
		// One guess fewer than the lockout: a victim with no failed
		// login of its own in between is still answered, not locked,
		// after the attack's single pass of the list.
		g, err := scenario.Guesses(lab, img, lockout-1)
		if err != nil {
			return nil, err
		}
		p.guesses = append(p.guesses, g)
	}
	r := rng.New(seed)
	for c := range p.logins {
		l := p.logins[c]
		r.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		p.rngs[c] = r.Split()
	}
	return p, nil
}

func (p *population) newAccount(name string, image int, clicks []dataset.Click) *account {
	return &account{name: name, conn: connFor(name), image: image, clicks: clicks, tokens: p.enroll(clicks)}
}

// enroll discretizes a password the way the server's enrollment does.
func (p *population) enroll(clicks []dataset.Click) []core.Token {
	tokens := make([]core.Token, len(clicks))
	for i, c := range clicks {
		tokens[i] = p.scheme.Enroll(c.Point())
	}
	return tokens
}

// own returns the accounts pinned to connection c, in population order.
func (p *population) own(c int) []*account {
	var out []*account
	for _, a := range p.accounts {
		if a.conn == c {
			out = append(out, a)
		}
	}
	return out
}

// freshName returns the next unused account name pinned to c.
func (p *population) freshName(c int) string {
	for {
		name := fmt.Sprintf("n%d", p.nextName[c])
		p.nextName[c]++
		if connFor(name) == c {
			return name
		}
	}
}

// records enrolls every account with the server's configuration — the
// hash chain included, so this is the slow part of preparing a run.
func (p *population) records() ([]*passpoints.Record, error) {
	return par.Map(0, len(p.accounts), func(i int) (*passpoints.Record, error) {
		a := p.accounts[i]
		pts := make([]geom.Point, len(a.clicks))
		for j, c := range a.clicks {
			pts[j] = c.Point()
		}
		return passpoints.Enroll(p.cfg, a.name, pts)
	})
}

// accepts is the replay model: a login is accepted when every click
// lands in the grid square its enrolled token names.
func (p *population) accepts(tokens []core.Token, clicks []dataset.Click) bool {
	if len(tokens) != len(clicks) {
		return false
	}
	for i := range tokens {
		if !core.Accepts(p.scheme, tokens[i], clicks[i].Point()) {
			return false
		}
	}
	return true
}

// login predicts the server's answer to one login attempt and applies
// it to the account: authsvc.Service's §5.1 rule (a locked account is
// refused unverified, a failure counts towards the lockout, a success
// clears the count) plus the session tier revoking a locked account's
// tokens.
func (p *population) login(a *account, clicks []dataset.Click) authsvc.Code {
	if a.failures >= lockout {
		return authsvc.CodeLocked
	}
	if p.accepts(a.tokens, clicks) {
		a.failures = 0
		return authsvc.CodeOK
	}
	a.failures++
	if a.failures >= lockout {
		a.revoked = true
		return authsvc.CodeLocked
	}
	return authsvc.CodeDenied
}

// step is one request of a script and the answer the model expects.
type step struct {
	req  authsvc.Request
	cls  class
	want authsvc.Code
	acc  *account
}

// class groups requests for latency reporting.
type class int

const (
	classLogin    class = iota // a user's own login attempt
	classGuess                 // an online attacker's guess
	classValidate              // a session-token check
	classWrite                 // an enroll or a password change
	numClasses
)

var classNames = [numClasses]string{"login", "guess", "validate", "write"}

// matches checks a response against the model.
func (s step) matches(resp authsvc.Response) bool {
	if resp.Code != s.want {
		return false
	}
	switch {
	case s.req.Op == authsvc.OpValidate && s.want == authsvc.CodeOK:
		return resp.User == s.acc.name
	case s.req.Op == authsvc.OpLogin && s.want == authsvc.CodeOK:
		return resp.Token != ""
	}
	return true
}

func (p *population) loginStep(a *account, clicks []dataset.Click, cls class) step {
	return step{
		req:  authsvc.Request{Version: authsvc.Version, Op: authsvc.OpLogin, User: a.name, Clicks: clicks},
		cls:  cls,
		want: p.login(a, clicks),
		acc:  a,
	}
}

// loginScript replays connection c's share of the field study's login
// attempts, re-entry errors included, cycling when it runs out.
func (p *population) loginScript(c int) func() step {
	list := p.logins[c]
	i := 0
	return func() step {
		at := list[i%len(list)]
		i++
		return p.loginStep(at.acc, at.clicks, classLogin)
	}
}

// tokenPool is one connection's share of the gateway's live sessions.
// It is kept free of pointers: the load generator shares the server's
// process, and 200,000 separate strings would make every garbage
// collection of the server scan them.
type tokenPool struct {
	buf   []byte
	ends  []int32 // token i is buf[ends[i-1]:ends[i]]
	owner []int32 // index of the token's account in population.accounts
}

func (tp *tokenPool) add(token string, owner int) {
	tp.buf = append(tp.buf, token...)
	tp.ends = append(tp.ends, int32(len(tp.buf)))
	tp.owner = append(tp.owner, int32(owner))
}

func (tp *tokenPool) token(i int) string {
	start := int32(0)
	if i > 0 {
		start = tp.ends[i-1]
	}
	return string(tp.buf[start:tp.ends[i]])
}

// validateShare is the gateway's share of token checks; the rest are
// logins.
const validateShare = 0.95

// gatewayScript checks tokens drawn uniformly from connection c's
// share of the pool, with a login from the field study in between.
func (p *population) gatewayScript(c int, pool *tokenPool) func() step {
	logins := p.loginScript(c)
	r := p.rngs[c]
	return func() step {
		if r.Float64() >= validateShare {
			return logins()
		}
		i := r.Intn(len(pool.ends))
		a := p.accounts[pool.owner[i]]
		want := authsvc.CodeOK
		if a.revoked {
			want = authsvc.CodeDenied
		}
		return step{
			req:  authsvc.Request{Version: authsvc.Version, Op: authsvc.OpValidate, Token: pool.token(i)},
			cls:  classValidate,
			want: want,
			acc:  a,
		}
	}
}

// writesScript alternates enrolling a fresh account and changing the
// password of one of connection c's accounts, walking them in a seeded
// order. New passwords come from the fresh pool.
func (p *population) writesScript(c int) func() step {
	own := p.own(c)
	r := p.rngs[c]
	r.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
	i, next := 0, c
	newPassword := func() []dataset.Click {
		clicks := p.fresh[next%len(p.fresh)]
		next += conns
		return clicks
	}
	return func() step {
		i++
		if i%2 == 1 {
			a := p.newAccount(p.freshName(c), 0, newPassword())
			a.written = true
			p.created[c] = append(p.created[c], a)
			return step{
				req:  authsvc.Request{Version: authsvc.Version, Op: authsvc.OpEnroll, User: a.name, Clicks: a.clicks},
				cls:  classWrite,
				want: authsvc.CodeOK,
				acc:  a,
			}
		}
		a := own[(i/2-1)%len(own)]
		old, clicks := a.clicks, newPassword()
		want := p.login(a, old)
		if want == authsvc.CodeOK {
			a.clicks, a.tokens = clicks, p.enroll(clicks)
			a.revoked, a.written = true, true
		}
		return step{
			req:  authsvc.Request{Version: authsvc.Version, Op: authsvc.OpChange, User: a.name, Clicks: old, NewClicks: clicks},
			cls:  classWrite,
			want: want,
			acc:  a,
		}
	}
}

// attackScript alternates one guess of the online attack and one
// login from the field study, n requests in all. The attack walks
// connection c's accounts breadth first in a seeded order: every victim
// gets guess k before any gets guess k+1. It never starts a second pass
// of the guess list, which would lock most victims out and turn their
// later requests into refusals that skip the hash chain.
func (p *population) attackScript(c, n int) (func() step, error) {
	victims := p.own(c)
	rounds := len(p.guesses[0])
	for _, g := range p.guesses {
		rounds = min(rounds, len(g))
	}
	if guesses := (n + 1) / 2; guesses > rounds*len(victims) {
		return nil, fmt.Errorf("attack: %d guesses on connection %d, but %d victims with %d guesses each", guesses, c, len(victims), rounds)
	}
	r := p.rngs[c]
	r.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	logins := p.loginScript(c)
	i, g := 0, 0
	return func() step {
		i++
		if i%2 == 0 {
			return logins()
		}
		v := victims[g%len(victims)]
		round := g / len(victims)
		g++
		st := p.loginStep(v, p.guesses[v.image][round], classGuess)
		if st.want == authsvc.CodeOK {
			v.cracked = true
		}
		return st
	}, nil
}
