package repl

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"clickpass/internal/canonjson"
)

// canonMsgs returns one message of every type with the fields the
// protocol sends in it (20-digit epochs and run ids), plus one message
// with every field set.
func canonMsgs(t testing.TB) []wireMsg {
	frames := []byte("\x1c\x00\x00\x00\xde\xad\xbe\xef{\"op\":\"put\",\"user\":\"zoë <admin> & 密码\"}")
	every := wireMsg{
		Type: msgSnapshot, Proto: protoVersion, Epoch: math.MaxUint64, RunID: 10000000000000000000, Shards: 4,
		Seqs: []uint64{0, math.MaxUint64}, Advertise: "10.0.0.1:7000", Shard: 3, Seq: 42,
		Frames: []byte{1, 2, 3},
	}
	rv := reflect.ValueOf(every)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("fixture leaves wireMsg.%s zero; set it so the decoder must cover it", rv.Type().Field(i).Name)
		}
	}
	return []wireMsg{
		{Type: msgHello, Proto: protoVersion, Epoch: math.MaxUint64, RunID: 18446744073709551615, Seqs: []uint64{1, 0, 18446744073709551615}, Shards: 3, Advertise: "a:1"},
		{Type: msgHello, Epoch: 7},
		{Type: msgWelcome, Proto: protoVersion, Epoch: 1, RunID: 12345678901234567890, Shards: 32, Advertise: "b:2"},
		{Type: msgSnapshot, Shard: 1, Seq: 9, Frames: frames},
		{Type: msgSnapshot, Shard: 0},
		{Type: msgFrames, Shard: 31, Seq: math.MaxUint64, Frames: []byte("framed bytes")},
		{Type: msgAck, Shard: 2, Seq: 5},
		{Type: msgPing},
		every,
	}
}

// wireDecodesLikeJSON checks readWireMsg against encoding/json on
// data: it must decline, or accept input encoding/json accepts and
// return a reflect.DeepEqual value. It reports whether it accepted.
func wireDecodesLikeJSON(t *testing.T, data []byte) bool {
	t.Helper()
	var fast wireMsg
	if !canonjson.Decode(data, &fast, readWireMsg) {
		return false
	}
	var ref wireMsg
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("wireMsg decoder accepted input encoding/json rejects (%v): %q", err, data)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("wireMsg decoder disagrees with encoding/json on %q:\n got %#v\nwant %#v", data, fast, ref)
	}
	return true
}

// TestCanonicalDecodeCoversWireMsgs: every message type the protocol
// sends decodes on the reflection-free path, to encoding/json's value.
func TestCanonicalDecodeCoversWireMsgs(t *testing.T) {
	for _, m := range canonMsgs(t) {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !wireDecodesLikeJSON(t, data) {
			t.Errorf("%s message fell back: %s", m.Type, data)
		}
	}
}

// FuzzCanonicalDecode: for arbitrary bytes, the reflection-free
// wireMsg decoder either declines or returns exactly encoding/json's
// value, and never accepts what encoding/json rejects.
func FuzzCanonicalDecode(f *testing.F) {
	for _, m := range canonMsgs(f) {
		data, _ := json.Marshal(m)
		f.Add(data)
	}
	for _, variant := range []string{
		`{"type":"hell\u006f","epoch":1}`,
		`{"epoch":1,"type":"hello"}`,
		`{"Type":"ack","shard":1}`,
		`{"type":"ack","type":"ping"}`,
		`{"type":"ack","shard":1.5}`,
		`{"type":"hello","proto":2,"seqs":null}`,
		`{"type":"snapshot","shard":1,"seq":9,"records":[{"user":"alice"}],"lockouts":{"a":1},"kv":{"k":"AQ=="}}`,
		`{"type":"hello","epoch":18446744073709551616}`,
		`{"type":"frames","frames":"AQI"}`,
	} {
		f.Add([]byte(variant))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wireDecodesLikeJSON(t, data)
	})
}
