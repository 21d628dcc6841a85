# Build/test entry points, mirrored by .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test vet race bench bench-json bench-store bench-session bench-redteam bench-diff loadsmoke storm-smoke recovery-smoke repl-smoke session-smoke redteam-smoke fuzz-smoke servebench-test docs-lint cover prodlines ci

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race exercises the parallel study/analysis/attack engines, the
# sharded vault, and the concurrent auth server under the race
# detector; the par determinism tests run at workers 1/2/8.
race:
	$(GO) test -race ./...

# bench runs the headline speedup and allocation benchmarks recorded
# in PERFORMANCE.md (serial vs parallel sub-benchmarks).
bench:
	$(GO) test -run NONE -bench 'StudyGeneration|Figure7|Table1|CrackPassword|Digest' -benchmem .

# bench-json records the experiment engine's hot paths (online,
# success, worstcase, cohort) at workers 1/2/4/8 as machine-readable
# BENCH_<name>.json in the repo root, plus a Markdown speedup table on
# stdout. CI runs it with a smaller -benchtime and uploads the JSON as
# an artifact.
bench-json:
	$(GO) run ./cmd/pwbench -out .

# bench-store records the vault backends — including the durable
# store at every fsync policy — on the auth mix and the pure-write
# path as BENCH_store.json (the fsync-latency table in
# PERFORMANCE.md's "Durable vault" section), plus the start-up rows:
# opening 10k records from a snapshot (open-snapshot) and by log
# replay (open-replay).
bench-store:
	$(GO) run ./cmd/pwbench -store -out .

# loadsmoke is the CI server-load smoke: small client swarms against
# both vault backends over BOTH transports (framed TCP and HTTP/JSON),
# plus the shared-limiter check that combined TCP+HTTP in-flight
# requests stay capped at -maxconns (see PERFORMANCE.md "Server load"
# and "Unified serving layer").
loadsmoke:
	$(GO) test ./internal/loadtest -run TestLoad -short -v

# storm-smoke is the CI overload drill: a 10x login storm against a
# small-capacity HTTP front. The bounded-queue admission policy must
# engage (sheds observed), refuse fast (shed p50 under the service
# time), keep accepted-request p99 in the uncontended regime, and hold
# goodput near capacity; retrying clients must then land ~all ops via
# jittered backoff honoring Retry-After (PERFORMANCE.md "Login storm").
storm-smoke:
	$(GO) test ./internal/loadtest -run TestStorm -v

# bench-diff guards the perf trajectory: re-run the harness (smoke
# -benchtime) into a scratch directory and compare against the
# committed BENCH_*.json baselines in the repo root, failing when any
# case is more than 25% slower after median normalization (the median
# ratio across all cases absorbs machine-speed differences, so only
# relative regressions trip it).
DIFF_OUT ?= /tmp/pwbench-diff
bench-diff:
	$(GO) run ./cmd/pwbench -out $(DIFF_OUT) -benchtime 100ms
	$(GO) run ./cmd/pwbench -store -out $(DIFF_OUT) -benchtime 100ms
	$(GO) run ./cmd/pwbench -session -out $(DIFF_OUT) -benchtime 100ms
	$(GO) run ./cmd/pwbench -redteam -out $(DIFF_OUT) -benchtime 100ms
	$(GO) run ./cmd/pwbench -diff . -out $(DIFF_OUT)

# recovery-smoke is the CI crash drill: build the real pwserver, serve
# a durable vault, enroll over the wire, SIGKILL it, restart on the
# same logs, and assert every acked mutation (records + lockout
# counters) survived. The pattern also picks up
# TestRecoveryCompactionSmoke, which re-runs the drill on one shard
# while password changes churn its log until the background compactor
# has replaced it twice, so the SIGKILL lands in or near a compaction.
# It then stresses the vault's fault and torture suites (torn and
# corrupt tails, group commit and its one failure rule — a failed
# write rolled back cleanly under concurrent writers, a failed fsync
# fail-stopping the shard, a failed flush failing the batch of a
# leader that is out — failed-append rollback from every caller under both sync
# modes, the fsyncs each caller makes, the sync loop, replicated-batch
# apply, snapshot install and its crash window, reopen, KV, lockout
# clears, and the packed records' reads and copies before and after a
# reopen) 20 times over under the race detector (about a minute on a
# 2-vCPU VM): a flaky run there is a bug report.
recovery-smoke:
	$(GO) test ./cmd/pwserver -run TestRecovery -v
	$(GO) test -race -count=20 -run 'Torture|GroupCommit|WalRollback|FsyncsPerCaller|SyncLoop|ApplyReplFrames|InstallShardSnapshot|Reopen|KV|Durable|SetLockout|Packed|KeepsCopies' ./internal/vault

# repl-smoke is the CI failover drill: build the real pwserver, start
# a quorum primary and a follower as separate processes, enroll and
# burn a lockout attempt over the wire, check that the follower
# answers a login and a reset with not_primary, SIGKILL the primary,
# promote the follower via POST /v1/promote on its admin listener, and
# assert the survivor serves every acked mutation — records AND the
# lockout counter — with no false accepts. Also runs the in-process
# replicated-pair swarm (TestLoadReplicatedPair), and stresses the
# replication package's tests, the failover and link torture suites,
# bootstrap from a shipped log and the protocol handshake included
# (TestRepl matches them all), and the auth service's three
# replicated-pair tests 20 times over under the race detector (about
# 45 s on a 2-vCPU VM): a flaky run there is a bug report.
repl-smoke:
	$(GO) test ./cmd/pwserver -run TestReplSmoke -v
	$(GO) test ./internal/loadtest -run TestLoadReplicatedPair -v
	$(GO) test -race -count=20 -run 'TestRepl|TestCollectWork|TestQuorum|TestStaleFence' ./internal/vault/repl
	$(GO) test -race -count=20 -run 'TestFollowerRefusesCredentialOps|TestFencedPrimaryRefusesReplacedPassword|TestPromotedFollowerLoadsClearedLockout' ./internal/authsvc

# session-smoke is the CI session-tier drill: build the real pwserver,
# start a quorum primary and a follower, log in for a signed session
# token, validate it on BOTH nodes with zero vault reads, rotate the
# signing key via POST /v1/session/rotate, SIGKILL the primary and
# promote the follower, and assert the pre-rotation token still
# validates on the survivor — then change the password and assert the
# token is refused (revocation watermarks replicate with the keys).
session-smoke:
	$(GO) test ./cmd/pwserver -run TestSessionSmoke -v

# bench-session records sign-once/verify-everywhere: token validation
# (the stateless fast path) against the full click-verify login chain
# at workers 1/2/4/8 as BENCH_session.json.
bench-session:
	$(GO) run ./cmd/pwbench -session -out .

# bench-redteam records the scenario engine's wire-rate: one full
# enroll-then-attack campaign (streamed victims, saliency-ordered
# guesses, real TCP codec, lockout counters) per op at workers 1/2/4/8
# as BENCH_redteam.json.
bench-redteam:
	$(GO) run ./cmd/pwbench -redteam -out .

# redteam-smoke is the CI attack drill: build the real pwserver, start
# a quorum primary/follower pair, stream-enroll a cohort, attack
# through the wire, SIGKILL the primary mid-campaign, promote the
# follower, finish the attack on the survivor, and assert the combined
# compromise count matches the in-process attack model while the
# re-adopted lockout counters grant the attacker zero fresh budget.
redteam-smoke:
	$(GO) test ./cmd/pwserver -run TestRedteamSmoke -v

# fuzz-smoke runs the decoder and token fuzz targets for FUZZTIME each
# (go test -fuzz takes one target per run): the differential
# FuzzCanonicalDecode of the vault formats and of the replication
# messages, FuzzOpen, FuzzUnmarshalRecord, FuzzVerify (Verify against
# VerifyPacked), FuzzValidateToken, whose mutated session tokens
# meet a verify cache that holds the genuine ones, and the serving
# fronts' request decoders FuzzReadFrame (a TCP frame) and
# FuzzHTTPDecode (an HTTP body), both straight into authsvc.Request.
# Under `go test ./...` they only replay their seeds.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/vault -run '^$$' -fuzz '^FuzzCanonicalDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vault/repl -run '^$$' -fuzz '^FuzzCanonicalDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vault -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/passpoints -run '^$$' -fuzz '^FuzzUnmarshalRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/passpoints -run '^$$' -fuzz '^FuzzVerify$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/session -run '^$$' -fuzz '^FuzzValidateToken$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/authproto -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/authproto -run '^$$' -fuzz '^FuzzHTTPDecode$$' -fuzztime $(FUZZTIME)

# servebench-test runs the serving benchmark's own tests under the race
# detector: the only model-checked end-to-end run of all four
# workloads (login, gateway, writes, attack). servebench is its own Go
# module, so `go test ./...` at the root does not reach it. It then
# runs the benchmark binary itself once per workload, one second each,
# and fails unless the result line says the run was correct with no
# failed request. Each result line is also appended to the CI job
# summary when $GITHUB_STEP_SUMMARY names one. heap_mb is not gated
# here: it has not yet been shown to repeat on CI's runners.
servebench-test:
	cd servebench && GOFLAGS= GOPROXY=off GOWORK=off $(GO) test -race ./...
	@for w in login gateway writes attack; do \
		out=$$(bash servebench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
		line=$$(echo "$$out" | tail -n 1); \
		echo "servebench $$w: $$line"; \
		echo "- servebench $$w: \`$$line\`" >> "$${GITHUB_STEP_SUMMARY:-/dev/null}"; \
		case "$$line" in *'"correct":true,'*'"failed":0,'*) ;; *) echo "servebench $$w: run not correct or had failed requests"; exit 1;; esac; \
	done

# docs-lint gates godoc coverage: go vet plus the repo's doclint
# checker (package comment on every internal/ and cmd/ package,
# doc comment on every exported identifier under internal/). It also
# fails when gofmt would change any tracked Go file.
docs-lint:
	$(GO) vet ./...
	$(GO) run ./cmd/doclint
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# cover prints per-package coverage (CI publishes this to the Actions
# summary).
cover:
	$(GO) test -cover ./...

# prodlines prints the production Go lines the working tree adds,
# deletes and nets against BASE (default HEAD): non-test .go files
# outside servebench/, summed from git diff --numstat. Stage new files
# first; git diff does not see untracked ones.
BASE ?= HEAD
prodlines:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' ':(exclude)servebench/' | \
		awk '{a += $$1; d += $$2} END {printf "production Go lines vs %s: +%d -%d, net %+d\n", "$(BASE)", a, d, a - d}'

ci: build docs-lint test race loadsmoke storm-smoke recovery-smoke repl-smoke session-smoke redteam-smoke fuzz-smoke servebench-test
