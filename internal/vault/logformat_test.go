package vault

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"clickpass/internal/core"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
)

// shardState is a store's state as plain maps: every record's packed
// bytes, every lockout counter and every side-table entry.
type shardState struct {
	Records  map[string]string
	Lockouts map[string]int
	KV       map[string][]byte
}

// stateOf reads d's state.
func stateOf(t *testing.T, d *Durable) shardState {
	t.Helper()
	st := shardState{Records: map[string]string{}, Lockouts: d.Lockouts(), KV: d.KVRange("")}
	for _, user := range d.Users() {
		p, err := d.GetPacked(user)
		if err != nil {
			t.Fatal(err)
		}
		st.Records[user] = string(p.Append(nil))
	}
	return st
}

// applyAll returns the state entries give when applied in order to an
// empty shard, through the replay switch.
func applyAll(entries ...walEntry) shardState {
	sh := walShard{shard: &shard{records: map[string]passpoints.Packed{}}, lockouts: map[string]int{}, kv: map[string][]byte{}}
	for i := range entries {
		sh.apply(&entries[i])
	}
	st := shardState{Records: map[string]string{}, Lockouts: sh.lockouts, KV: sh.kv}
	for user, p := range sh.records {
		st.Records[user] = string(p.Append(nil))
	}
	return st
}

// logPayloads returns the payload of every frame in a shard log.
func logPayloads(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for off := 0; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		out = append(out, data[off+walHeaderSize:off+walHeaderSize+n])
		off += walHeaderSize + n
	}
	return out
}

// TestJSONLogOpensMixesAndCompactsToBinary: a log of JSON frames, as
// releases before binary payloads wrote it, opens to the state its
// entries give. It covers every op of canonEntries, escaped and
// non-ASCII names, and a compaction's generation marker at its head.
// The log then takes binary appends behind the JSON frames and replays
// mixed, and after a compaction it holds binary frames only and
// reopens to the same state.
func TestJSONLogOpensMixesAndCompactsToBinary(t *testing.T) {
	entries := []walEntry{{Op: walOpCkpt, Ckpt: 10000000000000000000, Full: true}}
	for _, e := range canonEntries(t) {
		if e.Op != walOpCkpt {
			entries = append(entries, e)
		}
	}
	for i, rec := range canonRecords(t) {
		entries = append(entries,
			walEntry{Op: walOpPut, Rec: passpoints.Pack(rec)},
			walEntry{Op: walOpLock, User: rec.User, Failures: i + 1},
			walEntry{Op: walOpKV, Key: "session/rev/" + rec.User, Val: []byte(rec.User)},
		)
	}
	escaped := canonRecords(t)[6].User
	entries = append(entries,
		walEntry{Op: walOpDel, User: escaped},
		walEntry{Op: walOpLock, User: escaped},
		walEntry{Op: walOpKV, Key: "session/rev/" + escaped},
	)
	dir := writeParentDir(t, "", entries...)
	path := filepath.Join(dir, shardLogName(0))
	for _, p := range logPayloads(t, path) {
		if p[0] != '{' {
			t.Fatalf("fixture frame is not JSON: %q", p)
		}
	}
	opts := DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("opening a log of JSON frames: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	want := applyAll(entries...)
	if got := stateOf(t, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON log opened to\n%+v\nwant\n%+v", got, want)
	}

	nonASCII := canonRecords(t)[5].User
	appended := []walEntry{
		{Op: walOpPut, Rec: passpoints.Pack(versionedRecord("new", 1))},
		{Op: walOpPut, Rec: passpoints.Pack(versionedRecord(nonASCII, 2))},
		{Op: walOpDel, User: "alice"},
		{Op: walOpLock, User: nonASCII, Failures: 7},
		{Op: walOpKV, Key: "session/rev/" + nonASCII},
		{Op: walOpKV, Key: "session/key", Val: []byte{9, 9}},
	}
	for _, e := range appended {
		var err error
		switch e.Op {
		case walOpPut:
			err = d.Replace(e.Rec.Record())
		case walOpDel:
			d.Delete(e.User)
		case walOpLock:
			err = d.SetLockout(e.User, e.Failures)
		case walOpKV:
			err = d.SetKV(e.Key, e.Val)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want = applyAll(append(entries, appended...)...)
	d = reopen(t, d)
	if got := stateOf(t, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed log replayed to\n%+v\nwant\n%+v", got, want)
	}
	var jsonFrames, binFrames int
	for _, p := range logPayloads(t, path) {
		if p[0] == '{' {
			jsonFrames++
		} else {
			binFrames++
		}
	}
	if jsonFrames != len(entries) || binFrames != len(appended) {
		t.Fatalf("mixed log holds %d JSON and %d binary frames, want %d and %d", jsonFrames, binFrames, len(entries), len(appended))
	}

	if err := d.CompactShard(0); err != nil {
		t.Fatal(err)
	}
	for _, p := range logPayloads(t, path) {
		if p[0] == '{' {
			t.Fatalf("compacted log holds a JSON frame: %s", p)
		}
	}
	d = reopen(t, d)
	if got := stateOf(t, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted log reopened to\n%+v\nwant\n%+v", got, want)
	}
}

// TestDurableRefusesMalformedBinaryPayload: a frame whose CRC holds but
// whose binary payload does not decode — an unknown tag, which is how
// an earlier release meets this release's frames, or bytes appendPayload
// cannot have written — fails the open, naming the file and the frame's
// offset, and leaves the log exactly as it was.
func TestDurableRefusesMalformedBinaryPayload(t *testing.T) {
	put := appendPayload(nil, &walEntry{Op: walOpPut, Rec: passpoints.Pack(versionedRecord("bob", 1))})
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"unknown-tag", []byte{0x7f, 'x'}},
		{"trailing-byte", append(bytes.Clone(put), 0)},
		{"empty-user", appendPayload(nil, &walEntry{Op: walOpPut, Rec: passpoints.Pack(&passpoints.Record{})})},
		{"non-minimal-varint", []byte{walTagLock, 0x82, 0x00, 'b'}},
		{"key-past-end", []byte{walTagKV, 5, 'k'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true}
			d := openDurableT(t, opts)
			if err := d.Put(versionedRecord("alice", 1)); err != nil {
				t.Fatal(err)
			}
			dir := d.Dir()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, shardLogName(0))
			wal, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := len(wal)
			wal = append(wal, frameOf(tc.payload)...)
			wal = appendFrame(wal, &walEntry{Op: walOpPut, Rec: passpoints.Pack(versionedRecord("carol", 1))})
			if err := os.WriteFile(path, wal, 0o600); err != nil {
				t.Fatal(err)
			}
			back, err := OpenDurable(dir, opts)
			if err == nil {
				back.Close()
				t.Fatal("opened a log holding a malformed binary payload")
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "offset "+strconv.Itoa(bad)) {
				t.Errorf("open error %q names neither %s nor offset %d", err, path, bad)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wal) {
				t.Errorf("refused open changed the log: %d bytes, was %d (%v)", len(got), len(wal), err)
			}
		})
	}
}

// TestPutFrameSize: a servebench-shaped account, five clicks on the
// paper's image at 1,000 iterations under a five-character name, logs
// as a put frame of at most 96 bytes, header included.
func TestPutFrameSize(t *testing.T) {
	scheme, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := passpoints.Config{Image: geom.Size{W: 451, H: 331}, Clicks: passpoints.DefaultClicks, Scheme: scheme, Iterations: 1000}
	rec, err := passpoints.Enroll(cfg, "u9999", []geom.Point{
		geom.Pt(30, 40), geom.Pt(120, 300), geom.Pt(222, 51), geom.Pt(400, 200), geom.Pt(77, 160),
	})
	if err != nil {
		t.Fatal(err)
	}
	frame := appendFrame(nil, &walEntry{Op: walOpPut, Rec: passpoints.Pack(rec)})
	t.Logf("put frame: %d bytes", len(frame))
	if len(frame) > 96 {
		t.Errorf("a servebench-shaped put frame takes %d bytes, want at most 96", len(frame))
	}
}

// TestAppendRefusesOversizedEntry: an entry whose payload exceeds
// walMaxRecord, which replay would take for a corrupt length and drop
// with every record after it, is refused with its size before anything
// is staged, and the shard stays writable: a later write is acked and
// survives a reopen.
func TestAppendRefusesOversizedEntry(t *testing.T) {
	d := openDurableT(t, DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	err := d.SetKV("big", make([]byte, walMaxRecord))
	if err == nil {
		t.Fatal("SetKV acked a value over the log's record limit")
	}
	if size := strconv.Itoa(1 + 1 + len("big") + walMaxRecord); !strings.Contains(err.Error(), size) {
		t.Errorf("refusal %q does not carry the payload's size %s", err, size)
	}
	if _, ok := d.GetKV("big"); ok {
		t.Error("the refused value is readable")
	}
	if err := d.Put(versionedRecord("after", 1)); err != nil {
		t.Fatalf("Put after the refusal: %v", err)
	}
	back := reopen(t, d)
	if _, err := back.Get("after"); err != nil {
		t.Errorf("the write acked after the refusal is gone after a reopen: %v", err)
	}
	if _, ok := back.GetKV("big"); ok {
		t.Error("the refused value came back after a reopen")
	}
}

// TestSetKVRefusesOversizedBeforeCopy: SetKV refuses a value over the
// record limit before it copies the value, so the refusal allocates
// next to nothing however large the value is.
func TestSetKVRefusesOversizedBeforeCopy(t *testing.T) {
	d := openDurableT(t, DurableOptions{Shards: 1, Sync: SyncAlways, NoAutoCompact: true})
	big := make([]byte, walMaxRecord)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := d.SetKV("big", big)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("SetKV acked a value over the log's record limit")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("the refused SetKV allocated %d bytes, want under 1 MiB", n)
	}
}

// FuzzLogPayload: for arbitrary bytes, decodePayload either fails or
// returns an entry the log can keep. A binary payload re-encodes to
// exactly the input, at the size payloadSize predicts. A put's packed
// record re-packs to itself, and reading it back through Record, User,
// AppendJSON and VerifyPacked does not panic. The seeds are every
// canonEntries entry as JSON, and every one with a binary encoding (all
// but the generation markers) as binary.
func FuzzLogPayload(f *testing.F) {
	for _, e := range canonEntries(f) {
		f.Add(mustMarshal(f, e))
		if e.Op != walOpCkpt {
			f.Add(appendPayload(nil, &e))
		}
	}
	scheme, err := core.NewCentered(13)
	if err != nil {
		f.Fatal(err)
	}
	cfg := passpoints.Config{Image: geom.Size{W: 451, H: 331}, Clicks: 2, Scheme: scheme, Iterations: 2}
	clicks := []geom.Point{geom.Pt(30, 40), geom.Pt(120, 300)}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e walEntry
		if err := decodePayload(data, &e); err != nil {
			return
		}
		if data[0] != '{' {
			if got := appendPayload(nil, &e); !bytes.Equal(got, data) {
				t.Fatalf("payload %q decodes to %+v, which encodes to %q", data, e, got)
			}
			if n := payloadSize(&e); n != len(data) {
				t.Fatalf("payloadSize = %d for a %d-byte payload", n, len(data))
			}
		}
		if e.Op != walOpPut {
			return
		}
		rec := e.Rec.Record()
		if back := passpoints.Pack(rec); back != e.Rec {
			t.Fatalf("packed record %q re-packs to %q", e.Rec.Append(nil), back.Append(nil))
		}
		_ = e.Rec.User()
		_ = e.Rec.AppendJSON(nil)
		// The hash chain runs Iterations times; keep a fuzzed count from
		// stalling the run.
		if rec == nil || rec.Iterations <= 16 {
			_, _ = passpoints.VerifyPacked(cfg, e.Rec, clicks)
		}
	})
}

// TestBinaryPayloadLayout pins the binary payload of each op, and that
// each decodes back to its entry.
func TestBinaryPayloadLayout(t *testing.T) {
	for _, tc := range []struct {
		e    walEntry
		want string
	}{
		{walEntry{Op: walOpDel, User: "bob"}, "\x02bob"},
		{walEntry{Op: walOpLock, User: "bob", Failures: 3}, "\x03\x06bob"},
		{walEntry{Op: walOpLock, User: "bob"}, "\x03\x00bob"},
		{walEntry{Op: walOpKV, Key: "k", Val: []byte("v")}, "\x04\x01kv"},
		{walEntry{Op: walOpKV, Key: "k"}, "\x04\x01k"},
	} {
		got := appendPayload(nil, &tc.e)
		if string(got) != tc.want {
			t.Errorf("%+v encodes to %q, want %q", tc.e, got, tc.want)
		}
		var back walEntry
		if err := decodePayload(got, &back); err != nil || !reflect.DeepEqual(back, tc.e) {
			t.Errorf("%q decodes to %+v, %v; want %+v", got, back, err, tc.e)
		}
	}
	p := passpoints.Pack(versionedRecord("bob", 1))
	if got := appendPayload(nil, &walEntry{Op: walOpPut, Rec: p}); string(got) != "\x01"+string(p.Append(nil)) {
		t.Errorf("a put encodes to %q, want the tag and the packed record", got)
	}
}
