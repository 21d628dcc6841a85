package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"clickpass/internal/canonjson"
)

// canonMsgs returns one message of every type with the fields the
// protocol sends in it (20-digit epochs and run ids), plus one message
// with every field set, a hello so that writeMsg sends it as JSON.
func canonMsgs(t testing.TB) []wireMsg {
	frames := []byte("\x1c\x00\x00\x00\xde\xad\xbe\xef{\"op\":\"put\",\"user\":\"zoë <admin> & 密码\"}")
	every := wireMsg{
		Type: msgHello, Proto: protoVersion, Epoch: math.MaxUint64, RunID: 10000000000000000000, Shards: 4,
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
		{Type: msgFrames, Shard: math.MaxInt, Seq: 128, Frames: []byte{'{'}},
		{Type: msgAck, Shard: 2, Seq: 5},
		{Type: msgPing},
		every,
	}
}

// jsonMsg reports whether the protocol sends m as JSON: every type but
// snapshot and frames.
func jsonMsg(m wireMsg) bool { return m.Type != msgSnapshot && m.Type != msgFrames }

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

// TestCanonicalDecodeCoversWireMsgs: every message type decodes from
// JSON on the reflection-free path, to encoding/json's value.
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
// value, and never accepts what encoding/json rejects. FuzzReplMsg
// covers the binary snapshot and frames messages.
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

// framed returns a reader over payload framed as one message, with its
// length and CRC.
func framed(payload []byte) *bufio.Reader {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = append(binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload)), payload...)
	return bufio.NewReader(bytes.NewReader(b))
}

// refusedPayloads are message payloads writeMsg cannot have written.
var refusedPayloads = [][]byte{
	{wireTagFrames + 1, 0, 0},            // an unknown type byte
	{wireTagSnapshot, 0x80, 0x00, 1},     // a non-minimal shard
	{wireTagFrames, 1, 0x81, 0x80, 0x00}, // a non-minimal seq
	{wireTagSnapshot, 1},                 // no seq
	{wireTagFrames, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // an overlong seq
	{wireTagFrames, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x01, 0},       // a shard past MaxInt
	[]byte(`{"type":"frames","shard":1}`),                                                // frames as JSON
	[]byte(`{"type":"snapshot","shard":1,"seq":9,"frames":"AQI="}`),                      // a protocol 3 snapshot
}

// TestReplMsgRoundTrip: every canonMsgs message reads back as the value
// written, and every refusedPayloads payload is refused.
func TestReplMsgRoundTrip(t *testing.T) {
	for _, m := range canonMsgs(t) {
		var b bytes.Buffer
		if err := writeMsg(&b, &m); err != nil {
			t.Fatal(err)
		}
		var got wireMsg
		if err := readMsg(bufio.NewReader(&b), &got); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%+v reads back as %+v, %v", m, got, err)
		}
	}
	for _, p := range refusedPayloads {
		var m wireMsg
		if err := readMsg(framed(p), &m); err == nil {
			t.Errorf("accepted %q as %+v", p, m)
		}
	}
}

// FuzzReplMsg: for arbitrary bytes, framed as a message, readMsg
// either fails or accepts. Every snapshot or frames message it accepts
// is binary, and writeMsg re-encodes it to exactly the framed bytes;
// every other message it accepts is JSON. The seeds are every
// canonMsgs message as writeMsg frames it, and refusedPayloads.
func FuzzReplMsg(f *testing.F) {
	for _, m := range canonMsgs(f) {
		var b bytes.Buffer
		if err := writeMsg(&b, &m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes()[wireHeaderSize:])
	}
	for _, refused := range refusedPayloads {
		f.Add(refused)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var m wireMsg
		if readMsg(framed(payload), &m) != nil {
			return
		}
		if payload[0] == '{' {
			if !jsonMsg(m) {
				t.Fatalf("accepted a %s message in JSON: %q", m.Type, payload)
			}
			return
		}
		if jsonMsg(m) || m.Shard < 0 {
			t.Fatalf("accepted binary %q as %+v", payload, m)
		}
		var b bytes.Buffer
		if err := writeMsg(&b, &m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes()[wireHeaderSize:], payload) {
			t.Fatalf("%q decodes to %+v, which encodes to %q", payload, m, b.Bytes()[wireHeaderSize:])
		}
	})
}
