package authsvc

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promValue returns the value of the sample in m's exposition whose
// name and labels are exactly series, e.g.
// `authsvc_requests_total{op="login"}`.
func promValue(t *testing.T, m *Metrics, series string) float64 {
	t.Helper()
	var b strings.Builder
	m.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no %s series in:\n%s", series, b.String())
	return 0
}

// TestWritePrometheusExposition checks the scrape surface: metric
// families present with HELP/TYPE, cumulative (monotone) histogram
// buckets ending at +Inf == _count, and the shed counter labeled by
// priority.
func TestWritePrometheusExposition(t *testing.T) {
	var m Metrics
	m.observe(OpLogin, CodeOK, 300*time.Microsecond)
	m.observe(OpLogin, CodeDenied, 2*time.Millisecond)
	m.observe(OpEnroll, CodeOK, 40*time.Millisecond)
	m.observe(OpLogin, CodeOverloaded, 50*time.Microsecond)
	m.observeShed(PriorityLow)
	m.observeShed(PriorityLow)
	m.observeShed(PriorityHigh)
	m.observeQueueWait(3*time.Millisecond, PriorityHigh)

	var b strings.Builder
	m.WritePrometheus(&b)
	body := b.String()

	for _, want := range []string{
		`authsvc_requests_total{op="enroll"} 1`,
		`authsvc_requests_total{op="login"} 3`,
		`authsvc_responses_total{code="ok"} 2`,
		`authsvc_responses_total{code="overloaded"} 1`,
		`authsvc_shed_total{priority="low"} 2`,
		`authsvc_shed_total{priority="high"} 1`,
		`authsvc_shed_total{priority="normal"} 0`,
		`authsvc_queue_wait_seconds_count 1`,
		`authsvc_queue_wait_priority_seconds_count{priority="high"} 1`,
		`authsvc_queue_wait_priority_seconds_count{priority="normal"} 0`,
		`authsvc_queue_wait_priority_seconds_sum{priority="high"} 0.003`,
		`authsvc_request_duration_seconds_count 4`,
		`authsvc_request_duration_seconds_max 0.04`,
		`# TYPE authsvc_request_duration_seconds_max gauge`,
		`# TYPE authsvc_request_duration_seconds histogram`,
		`# TYPE authsvc_requests_total counter`,
		`# TYPE authsvc_in_flight gauge`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Histogram buckets must be cumulative and end at +Inf == count.
	var last int64 = -1
	var infSeen bool
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "authsvc_request_duration_seconds_bucket") {
			continue
		}
		val, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if val < last {
			t.Fatalf("non-cumulative bucket: %q after %d", line, last)
		}
		last = val
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if val != 4 {
				t.Errorf("+Inf bucket = %d, want 4 (the observation count)", val)
			}
		}
	}
	if !infSeen {
		t.Error("no +Inf bucket")
	}
	// 300us lands in the le=0.0005 bucket, 50us in le=0.0001.
	if !strings.Contains(body, `authsvc_request_duration_seconds_bucket{le="0.0001"} 1`) {
		t.Errorf("50us shed not in the first bucket:\n%s", body)
	}
}

// TestUnknownOpsShareOneSeries: ops that are not one of the Op
// constants come off the wire as arbitrary strings, so they are
// counted under op="unknown" rather than each under its own label,
// which would grow the counter table and the exposition without
// bound. The response still names the op.
func TestUnknownOpsShareOneSeries(t *testing.T) {
	var m Metrics
	h := Chain(testService(t, 3), WithMetrics(&m))
	ctx := context.Background()
	h.Handle(ctx, Request{Op: OpPing})
	for i := 0; i < 100; i++ {
		op := Op(fmt.Sprintf("bogus-%d", i))
		resp := h.Handle(ctx, Request{Op: op})
		if resp.Code != CodeInvalid || !strings.Contains(resp.Err, string(op)) {
			t.Fatalf("op %q: %+v, want invalid naming the op", op, resp)
		}
	}
	var b strings.Builder
	m.WritePrometheus(&b)
	var series []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "authsvc_requests_total{") {
			series = append(series, line)
		}
	}
	want := []string{
		`authsvc_requests_total{op="ping"} 1`,
		`authsvc_requests_total{op="unknown"} 100`,
	}
	if got := strings.Join(series, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("op series:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}
