package authsvc

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics aggregates the serving pipeline's observability signals:
// request counts by op and by outcome code, latency (a histogram with
// its sum, count and max), and the in-flight gauge with its high-water
// mark. One Metrics instance is shared by every transport of a server,
// so the numbers describe the service, not one front end.
// WritePrometheus publishes them.
//
// The two concerns attach at different pipeline depths (see
// WithMetrics and WithInFlight): counts and latency are recorded
// outermost, so refused and throttled requests — the load an
// overloaded server sheds — are visible in authsvc_responses_total;
// the in-flight gauge runs inside admission, so its high-water mark is
// provably capped by the shared limiter.
//
// Safe for concurrent use; the zero value is ready.
type Metrics struct {
	inFlight atomic.Int64
	peak     atomic.Int64
	// sheds counts CodeOverloaded refusals by admission priority —
	// the load the overload policy deliberately turned away.
	sheds [numPriorities]atomic.Int64
	// Attacker-classification counters: failed credential checks and
	// locked-account refusals on the credential-bearing ops (login and
	// change). Legitimate users mistype occasionally; an online guesser
	// produces these in bulk, so the pair is the red-team harness's
	// server-side view of an attack in progress.
	credFailures   atomic.Int64
	lockedRefusals atomic.Int64

	mu       sync.Mutex
	byOp     map[Op]int64
	byCode   map[Code]int64
	requests int64
	latTotal time.Duration
	latMax   time.Duration
	// latBuckets is a cumulative-style histogram over latBounds
	// (bucket i counts requests with latency <= latBounds[i]; the last
	// slot is +Inf), stored as per-bucket counts and summed on export.
	latBuckets [len(latBounds) + 1]int64
	// Queue-wait observations from the overload middleware: time
	// admitted requests spent parked for a limiter slot, in aggregate
	// and broken down by admission priority. The per-tier split is
	// what makes priority inversion visible: under a storm the whole
	// point of the watermarks is that high-priority waits stay flat
	// while normal/low waits grow (until their tiers shed) — one
	// blended mean hides exactly that.
	queueWaitN     int64
	queueWaitTotal time.Duration
	queueWaitMax   time.Duration
	qwPriN         [numPriorities]int64
	qwPriTotal     [numPriorities]time.Duration
	qwPriMax       [numPriorities]time.Duration
}

// latBounds are the latency histogram bucket upper bounds. The
// geometric spacing covers the repo's whole dynamic range: sub-ms
// shed refusals at the bottom, fsync-bound durable writes and
// queue-delayed storm traffic at the top.
var latBounds = [...]time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 10 * time.Second,
}

// enter marks a request entering the handled (admitted) phase.
func (m *Metrics) enter() {
	n := m.inFlight.Add(1)
	for {
		p := m.peak.Load()
		if n <= p || m.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// leave marks a request leaving the handled phase.
func (m *Metrics) leave() { m.inFlight.Add(-1) }

// observe records one finished request's outcome and latency.
func (m *Metrics) observe(op Op, code Code, d time.Duration) {
	switch op {
	case OpPing, OpEnroll, OpLogin, OpChange, OpReset, OpValidate:
	default:
		// The op comes off the wire, and a framed-TCP client may send
		// any string: counting each under its own label would grow the
		// table and the exposition without bound.
		op = "unknown"
	}
	if op == OpLogin || op == OpChange {
		switch code {
		case CodeDenied:
			m.credFailures.Add(1)
		case CodeLocked:
			m.lockedRefusals.Add(1)
		}
	}
	m.mu.Lock()
	if m.byOp == nil {
		m.byOp = make(map[Op]int64)
		m.byCode = make(map[Code]int64)
	}
	m.byOp[op]++
	m.byCode[code]++
	m.requests++
	m.latTotal += d
	if d > m.latMax {
		m.latMax = d
	}
	i := 0
	for ; i < len(latBounds); i++ {
		if d <= latBounds[i] {
			break
		}
	}
	m.latBuckets[i]++
	m.mu.Unlock()
}

// observeShed counts one request refused with CodeOverloaded at the
// given admission priority.
func (m *Metrics) observeShed(p Priority) { m.sheds[p].Add(1) }

// observeQueueWait records the time an admitted request spent waiting
// for a limiter slot, attributed to its admission priority.
func (m *Metrics) observeQueueWait(d time.Duration, p Priority) {
	m.mu.Lock()
	m.queueWaitN++
	m.queueWaitTotal += d
	if d > m.queueWaitMax {
		m.queueWaitMax = d
	}
	if p >= 0 && p < numPriorities {
		m.qwPriN[p]++
		m.qwPriTotal[p] += d
		if d > m.qwPriMax[p] {
			m.qwPriMax[p] = d
		}
	}
	m.mu.Unlock()
}

// CredentialFailures returns the number of failed credential checks
// (CodeDenied on login/change) — the guess volume an online attacker
// spent against this server.
func (m *Metrics) CredentialFailures() int64 { return m.credFailures.Load() }

// LockedRefusals returns the number of credential-bearing requests
// refused because the account was already locked out — attempts an
// attacker paid for that bought zero verification work.
func (m *Metrics) LockedRefusals() int64 { return m.lockedRefusals.Load() }

// Sheds returns the total CodeOverloaded refusals across priorities.
func (m *Metrics) Sheds() int64 {
	var n int64
	for i := range m.sheds {
		n += m.sheds[i].Load()
	}
	return n
}

// InFlight returns the number of requests currently being handled.
func (m *Metrics) InFlight() int64 { return m.inFlight.Load() }

// Peak returns the high-water mark of the in-flight gauge — the
// observable proof that a shared admission limiter really caps the
// combined transports.
func (m *Metrics) Peak() int64 { return m.peak.Load() }

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4): counters by op and code, the
// in-flight gauge and its peak, per-priority shed counters,
// queue-wait aggregates, the longest request latency, and the request
// latency histogram with cumulative le buckets.
func (m *Metrics) WritePrometheus(w io.Writer) {
	type sample struct {
		op    Op
		code  Code
		count int64
	}
	var (
		ops, codes []sample
		requests   int64
		latTotal   time.Duration
		latMax     time.Duration
		buckets    [len(latBounds) + 1]int64
		qwN        int64
		qwTotal    time.Duration
		qwMax      time.Duration
		qpN        [numPriorities]int64
		qpTotal    [numPriorities]time.Duration
		qpMax      [numPriorities]time.Duration
	)
	m.mu.Lock()
	for op, n := range m.byOp {
		ops = append(ops, sample{op: op, count: n})
	}
	for code, n := range m.byCode {
		codes = append(codes, sample{code: code, count: n})
	}
	requests = m.requests
	latTotal, latMax = m.latTotal, m.latMax
	buckets = m.latBuckets
	qwN, qwTotal, qwMax = m.queueWaitN, m.queueWaitTotal, m.queueWaitMax
	qpN, qpTotal, qpMax = m.qwPriN, m.qwPriTotal, m.qwPriMax
	m.mu.Unlock()
	sort.Slice(ops, func(i, j int) bool { return ops[i].op < ops[j].op })
	sort.Slice(codes, func(i, j int) bool { return codes[i].code < codes[j].code })

	fmt.Fprintf(w, "# HELP authsvc_requests_total Requests handled, by operation.\n")
	fmt.Fprintf(w, "# TYPE authsvc_requests_total counter\n")
	for _, s := range ops {
		fmt.Fprintf(w, "authsvc_requests_total{op=%q} %d\n", s.op, s.count)
	}
	fmt.Fprintf(w, "# HELP authsvc_responses_total Responses issued, by outcome code.\n")
	fmt.Fprintf(w, "# TYPE authsvc_responses_total counter\n")
	for _, s := range codes {
		fmt.Fprintf(w, "authsvc_responses_total{code=%q} %d\n", s.code, s.count)
	}
	fmt.Fprintf(w, "# HELP authsvc_in_flight Requests currently being handled.\n")
	fmt.Fprintf(w, "# TYPE authsvc_in_flight gauge\n")
	fmt.Fprintf(w, "authsvc_in_flight %d\n", m.inFlight.Load())
	fmt.Fprintf(w, "# HELP authsvc_in_flight_peak High-water mark of the in-flight gauge.\n")
	fmt.Fprintf(w, "# TYPE authsvc_in_flight_peak gauge\n")
	fmt.Fprintf(w, "authsvc_in_flight_peak %d\n", m.peak.Load())
	fmt.Fprintf(w, "# HELP authsvc_shed_total Requests refused with code=overloaded, by admission priority.\n")
	fmt.Fprintf(w, "# TYPE authsvc_shed_total counter\n")
	for i := range m.sheds {
		fmt.Fprintf(w, "authsvc_shed_total{priority=%q} %d\n", Priority(i), m.sheds[i].Load())
	}
	fmt.Fprintf(w, "# HELP authsvc_credential_failures_total Failed credential checks (code=denied on login/change) — attack-shaped traffic.\n")
	fmt.Fprintf(w, "# TYPE authsvc_credential_failures_total counter\n")
	fmt.Fprintf(w, "authsvc_credential_failures_total %d\n", m.credFailures.Load())
	fmt.Fprintf(w, "# HELP authsvc_locked_refusals_total Credential requests refused because the account was locked out.\n")
	fmt.Fprintf(w, "# TYPE authsvc_locked_refusals_total counter\n")
	fmt.Fprintf(w, "authsvc_locked_refusals_total %d\n", m.lockedRefusals.Load())
	fmt.Fprintf(w, "# HELP authsvc_queue_wait_seconds_sum Total time admitted requests spent queued for a limiter slot.\n")
	fmt.Fprintf(w, "# TYPE authsvc_queue_wait_seconds_sum counter\n")
	fmt.Fprintf(w, "authsvc_queue_wait_seconds_sum %s\n", promFloat(qwTotal.Seconds()))
	fmt.Fprintf(w, "# HELP authsvc_queue_wait_seconds_count Admitted requests that reported a queue wait.\n")
	fmt.Fprintf(w, "# TYPE authsvc_queue_wait_seconds_count counter\n")
	fmt.Fprintf(w, "authsvc_queue_wait_seconds_count %d\n", qwN)
	fmt.Fprintf(w, "# HELP authsvc_queue_wait_seconds_max Longest observed queue wait.\n")
	fmt.Fprintf(w, "# TYPE authsvc_queue_wait_seconds_max gauge\n")
	fmt.Fprintf(w, "authsvc_queue_wait_seconds_max %s\n", promFloat(qwMax.Seconds()))
	fmt.Fprintf(w, "# HELP authsvc_request_duration_seconds_max Longest observed request latency, queueing included.\n")
	fmt.Fprintf(w, "# TYPE authsvc_request_duration_seconds_max gauge\n")
	fmt.Fprintf(w, "authsvc_request_duration_seconds_max %s\n", promFloat(latMax.Seconds()))
	fmt.Fprintf(w, "# HELP authsvc_queue_wait_priority_seconds_sum Queue wait, by admission priority.\n")
	fmt.Fprintf(w, "# TYPE authsvc_queue_wait_priority_seconds_sum counter\n")
	for i := range qpN {
		fmt.Fprintf(w, "authsvc_queue_wait_priority_seconds_sum{priority=%q} %s\n",
			Priority(i), promFloat(qpTotal[i].Seconds()))
	}
	fmt.Fprintf(w, "# HELP authsvc_queue_wait_priority_seconds_count Queue-wait observations, by admission priority.\n")
	fmt.Fprintf(w, "# TYPE authsvc_queue_wait_priority_seconds_count counter\n")
	for i := range qpN {
		fmt.Fprintf(w, "authsvc_queue_wait_priority_seconds_count{priority=%q} %d\n", Priority(i), qpN[i])
	}
	fmt.Fprintf(w, "# HELP authsvc_queue_wait_priority_seconds_max Longest observed queue wait, by admission priority.\n")
	fmt.Fprintf(w, "# TYPE authsvc_queue_wait_priority_seconds_max gauge\n")
	for i := range qpN {
		fmt.Fprintf(w, "authsvc_queue_wait_priority_seconds_max{priority=%q} %s\n",
			Priority(i), promFloat(qpMax[i].Seconds()))
	}
	fmt.Fprintf(w, "# HELP authsvc_request_duration_seconds Request latency, queueing included.\n")
	fmt.Fprintf(w, "# TYPE authsvc_request_duration_seconds histogram\n")
	var cum int64
	for i, bound := range latBounds {
		cum += buckets[i]
		fmt.Fprintf(w, "authsvc_request_duration_seconds_bucket{le=%q} %d\n",
			promFloat(bound.Seconds()), cum)
	}
	cum += buckets[len(latBounds)]
	fmt.Fprintf(w, "authsvc_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "authsvc_request_duration_seconds_sum %s\n", promFloat(latTotal.Seconds()))
	fmt.Fprintf(w, "authsvc_request_duration_seconds_count %d\n", requests)
}

// promFloat formats a float the way Prometheus text exposition
// expects: shortest round-trippable decimal.
func promFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
