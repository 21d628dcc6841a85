package repl

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"clickpass/internal/canonjson"
)

// The replication wire protocol: length-prefixed, CRC32-checksummed
// messages over one TCP connection per follower — the same framing
// discipline as the WAL itself, so a torn or corrupted message is
// detected (and kills the connection) instead of being half-applied. A
// shard's state travels only as WAL frames: a snapshot is the shard's
// log as compaction would write it, and a frames message is one
// committed batch. The conversation:
//
//	follower → hello   (protocol, epoch, known run id, per-shard applied seqs)
//	primary  → welcome (protocol, epoch, run id, shard count, advertise addr)
//	primary  → snapshot per shard needing bootstrap (its log frames), then
//	primary  → frames / ping ...       (continuous)
//	follower → ack per applied batch   (continuous)
//
// hello, welcome, ack and ping are JSON. snapshot and frames, which
// carry nearly every byte, are binary: a type byte that is never '{',
// the shard and seq as minimal uvarints, then the frames exactly as the
// log holds them, so neither side base64s them or parses JSON around
// them, and the follower stages the bytes it read.
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
// hello and welcome. Both nodes of a pair must run one release: a peer
// on any other version is refused at the handshake, not mid-stream.
const protoVersion = 4

// Message types.
const (
	msgHello    = "hello"
	msgWelcome  = "welcome"
	msgSnapshot = "snapshot"
	msgFrames   = "frames"
	msgAck      = "ack"
	msgPing     = "ping"
)

// The type bytes that open a binary message. Neither is '{', which
// opens every JSON message.
const (
	wireTagSnapshot byte = 1 + iota
	wireTagFrames
)

// wireMsg is the one envelope every replication message uses; Type
// selects which fields are meaningful. writeMsg sends a snapshot or
// frames message binary and every other type as JSON.
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
	var buf []byte
	switch m.Type {
	case msgSnapshot, msgFrames:
		tag := wireTagSnapshot
		if m.Type == msgFrames {
			tag = wireTagFrames
		}
		buf = make([]byte, wireHeaderSize, wireHeaderSize+1+2*binary.MaxVarintLen64+len(m.Frames))
		buf = binary.AppendUvarint(append(buf, tag), uint64(m.Shard))
		buf = append(binary.AppendUvarint(buf, m.Seq), m.Frames...)
	default:
		payload, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("repl: encoding %s: %w", m.Type, err)
		}
		buf = append(make([]byte, wireHeaderSize, wireHeaderSize+len(payload)), payload...)
	}
	payload := buf[wireHeaderSize:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("repl: writing %s: %w", m.Type, err)
	}
	return nil
}

// readMsg reads and validates one framed message into m: a payload
// that opens with '{' through readWireMsg, any other through
// readBinaryMsg. A snapshot or frames message in JSON is refused, as
// this protocol never sends one.
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
	if payload[0] != '{' {
		return readBinaryMsg(payload, m)
	}
	if err := canonjson.Unmarshal(payload, m, readWireMsg); err != nil {
		return fmt.Errorf("repl: decoding message: %w", err)
	}
	if m.Type == msgSnapshot || m.Type == msgFrames {
		return fmt.Errorf("repl: a %s message in JSON", m.Type)
	}
	return nil
}

// errBadMsg refuses a binary message writeMsg cannot have written.
var errBadMsg = errors.New("repl: malformed binary message")

// readBinaryMsg decodes a binary payload into the zero m: it must be
// exactly what writeMsg writes, a known type byte, then minimal
// uvarints, the first of which fits an int. Empty frames decode as
// nil. m.Frames aliases payload, and nothing the follower keeps pins
// it: decodeFrames copies every string and blob of the entries it
// returns, and the log append and replacement copy the frames.
func readBinaryMsg(payload []byte, m *wireMsg) error {
	switch payload[0] {
	case wireTagSnapshot:
		m.Type = msgSnapshot
	case wireTagFrames:
		m.Type = msgFrames
	default:
		return fmt.Errorf("repl: unknown message type byte %#x", payload[0])
	}
	off := 1
	var shard uint64
	for _, v := range []*uint64{&shard, &m.Seq} {
		x, n := binary.Uvarint(payload[off:])
		if n <= 0 || n > 1 && payload[off+n-1] == 0 {
			return errBadMsg
		}
		*v, off = x, off+n
	}
	if shard > math.MaxInt {
		return errBadMsg
	}
	m.Shard = int(shard)
	if off < len(payload) {
		m.Frames = payload[off:]
	}
	return nil
}
