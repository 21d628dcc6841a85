package authproto

import (
	"bytes"
	"testing"

	"clickpass/internal/authsvc"
	"clickpass/internal/dataset"
)

// FuzzReadFrame: arbitrary bytes from the network must never panic the
// frame reader; they either parse as a request or return an error.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	if err := writeFrame(&good, authsvc.Request{Op: authsvc.OpPing}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req authsvc.Request
		_ = readFrame(bytes.NewReader(data), &req)
	})
}

// FuzzHandle: arbitrary decoded requests must never panic the server.
func FuzzHandle(f *testing.F) {
	f.Add("login", "alice", 10, 20)
	f.Add("enroll", "", -5, 900)
	f.Add("weird", "x", 0, 0)
	f.Fuzz(func(t *testing.T, op, user string, x, y int) {
		srv := fuzzServer(t)
		req := authsvc.Request{Op: authsvc.Op(op), User: user}
		for i := 0; i < 5; i++ {
			req.Clicks = append(req.Clicks, clickAt(x+i, y-i))
		}
		_ = srv.Handle(req)
	})
}

func fuzzServer(t *testing.T) *Server {
	t.Helper()
	return testServer(t, 3)
}

func clickAt(x, y int) dataset.Click { return dataset.Click{X: x, Y: y} }
