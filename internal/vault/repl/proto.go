package repl

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"clickpass/internal/canonjson"
)

// The replication wire protocol: length-prefixed, CRC32-checksummed
// JSON messages over one TCP connection per follower — the same
// framing discipline as the WAL itself, so a torn or corrupted
// message is detected (and kills the connection) instead of being
// half-applied. A shard's state travels only as WAL frames: a
// snapshot is the shard's log as compaction would write it, and a
// frames message is one committed batch. The conversation:
//
//	follower → hello   (protocol, epoch, known run id, per-shard applied seqs)
//	primary  → welcome (protocol, epoch, run id, shard count, advertise addr)
//	primary  → snapshot per shard needing bootstrap (its log frames), then
//	primary  → frames / ping ...       (continuous)
//	follower → ack per applied batch   (continuous)
//
// Each side refuses a peer whose hello or welcome names another
// protocol than protoVersion, and a follower ends the connection on a
// message type it does not know, so a mixed-version pair never
// streams. A hello whose epoch exceeds the receiver's is a fence,
// whatever its protocol: the receiver is deposed, refuses the
// connection, and stops accepting writes. The promoted node sends
// exactly that hello to its old primary best-effort; partition-tolerant
// fencing comes from quorum acks, not from this courtesy message.

// protoVersion is the replication protocol this release speaks, sent in
// hello and welcome; both nodes of a pair must run one release.
// Version 3 ships frames with binary payloads. A version 2 node refuses
// those as undecodable, mid-stream, and would redial into the same
// refusal forever, so the handshake refuses it instead. Version 2
// shipped JSON payloads, and version 1, whose messages carry no number,
// shipped a snapshot as JSON maps, which this release would read as an
// empty shard.
const protoVersion = 3

// Message types.
const (
	msgHello    = "hello"
	msgWelcome  = "welcome"
	msgSnapshot = "snapshot"
	msgFrames   = "frames"
	msgAck      = "ack"
	msgPing     = "ping"
)

// wireMsg is the single JSON envelope every replication message uses;
// Type selects which fields are meaningful.
type wireMsg struct {
	// Type is one of the msg* constants.
	Type string `json:"type"`
	// Epoch is the sender's replication epoch (hello, welcome).
	Epoch uint64 `json:"epoch,omitempty"`
	// RunID identifies a primary's stream incarnation: sequence
	// numbers are only comparable within one run id (hello carries the
	// follower's last known one, welcome the primary's current one).
	RunID uint64 `json:"run_id,omitempty"`
	// Shards is the primary's shard count (welcome); a follower over a
	// differently-sharded store cannot apply the stream.
	Shards int `json:"shards,omitempty"`
	// Seqs is the follower's per-shard applied sequence floor under
	// RunID (hello) — the resume positions.
	Seqs []uint64 `json:"seqs,omitempty"`
	// Advertise is the sender's client-facing address, forwarded to
	// clients as the redirect target (hello from a promoted node,
	// welcome from the primary).
	Advertise string `json:"advertise,omitempty"`
	// Shard scopes snapshot, frames, and ack messages.
	Shard int `json:"shard"`
	// Seq is the last sequence number the message covers: the final
	// record of a frames batch, the snapshot's fold-in floor, or the
	// follower's applied-and-synced floor (ack).
	Seq uint64 `json:"seq,omitempty"`
	// Frames is a concatenation of WAL frames: one committed batch
	// (frames), or the shard's whole live state — records, lockout
	// counters and side-table entries — as a log (snapshot).
	Frames []byte `json:"frames,omitempty"`
	// Proto is the sender's replication protocol (hello, welcome); see
	// protoVersion.
	Proto int `json:"proto,omitempty"`
}

// wireMsgKeys are wireMsg's JSON member names in declaration order.
var wireMsgKeys = canonjson.Keys[wireMsg]()

// readWireMsg reads a message payload without reflection (see package
// canonjson).
func readWireMsg(r *canonjson.Reader, m *wireMsg) {
	r.Object(wireMsgKeys, func(i int) {
		switch i {
		case 0:
			m.Type = r.Intern(msgHello, msgWelcome, msgSnapshot, msgFrames, msgAck, msgPing)
		case 1:
			m.Epoch = r.Uint64()
		case 2:
			m.RunID = r.Uint64()
		case 3:
			m.Shards = r.Int()
		case 4:
			m.Seqs = canonjson.Slice(r, (*canonjson.Reader).Uint64)
		case 5:
			m.Advertise = r.Str()
		case 6:
			m.Shard = r.Int()
		case 7:
			m.Seq = r.Uint64()
		case 8:
			m.Frames = r.Bytes()
		case 9:
			m.Proto = r.Int()
		}
	})
}

// wireHeaderSize is the fixed framing: little-endian uint32 payload
// length then IEEE CRC32 of the payload.
const wireHeaderSize = 8

// wireMaxMsg bounds a decoded message. Snapshots of a whole shard can
// be large, but a corrupt length field must not allocate the moon.
const wireMaxMsg = 1 << 30

// writeMsg frames and writes one message in a single Write call.
func writeMsg(w io.Writer, m *wireMsg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("repl: encoding %s: %w", m.Type, err)
	}
	buf := make([]byte, wireHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[wireHeaderSize:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("repl: writing %s: %w", m.Type, err)
	}
	return nil
}

// readMsg reads and validates one framed message into m.
func readMsg(r *bufio.Reader, m *wireMsg) error {
	var header [wireHeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return err // io.EOF for a clean close
	}
	length := binary.LittleEndian.Uint32(header[0:4])
	sum := binary.LittleEndian.Uint32(header[4:8])
	if length == 0 || length > wireMaxMsg {
		return fmt.Errorf("repl: corrupt message length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("repl: torn message payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return fmt.Errorf("repl: message CRC mismatch")
	}
	*m = wireMsg{}
	if err := canonjson.Unmarshal(payload, m, readWireMsg); err != nil {
		return fmt.Errorf("repl: decoding message: %w", err)
	}
	return nil
}
