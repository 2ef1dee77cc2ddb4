// Package store is fpgaprd's durability layer: an append-only,
// fsync-disciplined write-ahead log that journals job lifecycle records, and
// a content-addressed on-disk blob store for finished layouts, keyed by the
// same sha256 cache key the in-memory result cache uses.
//
// The WAL is the source of truth for "what work was promised": every
// submission is journaled before it is enqueued, every state transition is
// appended behind it, and on startup the intact prefix of the log is
// replayed to re-enqueue interrupted jobs and re-advertise finished ones.
// Records are CRC-framed so a torn tail (crash mid-append) is detected and
// dropped without losing the prefix. The blob store holds the expensive
// artifacts — place-and-route results are deterministic for their cache key,
// so a layout written once can be served forever without re-annealing —
// bounded by a size-budgeted LRU index.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Kind is a job lifecycle record type.
type Kind uint8

const (
	// KindSubmitted journals a validated submission before it is enqueued.
	// Its Data payload is everything needed to rebuild the job (the server's
	// journalSubmission JSON); a submitted record with no terminal record
	// behind it is an interrupted job, re-enqueued at recovery.
	KindSubmitted Kind = 1
	// KindRunning marks the queued → running transition.
	KindRunning Kind = 2
	// KindDone marks successful completion; Data carries the result metadata
	// (design name, size, stats) and the layout bytes live in the blob store
	// under the record's Key.
	KindDone Kind = 3
	// KindFailed marks optimizer failure; Data is the error message.
	KindFailed Kind = 4
	// KindCanceled marks a client-requested cancellation (never a shutdown
	// interrupt — interrupted jobs keep their submitted record so they run
	// again on restart).
	KindCanceled Kind = 5
	// KindGroup journals a batch or portfolio group: Job is the group ID
	// ("b%d"/"p%d", disjoint from the job "j%d" namespace) and Data maps the
	// group to its member job IDs (the server's journalGroup JSON). Group
	// records carry no lifecycle of their own — a group's state is derived
	// from its member jobs' records at recovery.
	KindGroup Kind = 6
)

func (k Kind) String() string {
	switch k {
	case KindSubmitted:
		return "submitted"
	case KindRunning:
		return "running"
	case KindDone:
		return "done"
	case KindFailed:
		return "failed"
	case KindCanceled:
		return "canceled"
	case KindGroup:
		return "group"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one journal entry: a lifecycle event for one job. Key is the
// content address of the job's result (the server's sha256 cache key) and
// Data is an opaque payload whose meaning depends on Kind.
type Record struct {
	Kind Kind
	Job  string
	Key  string
	Data []byte
}

// Codec bounds. They keep a corrupt or adversarial length field from
// allocating unbounded memory during replay and give the fuzzer a hard
// never-panic envelope.
const (
	maxJobLen  = 255
	maxKeyLen  = 1 << 10
	maxDataLen = 16 << 20

	// bodyHeaderLen is kind(1) + jobLen(1) + keyLen(2) + dataLen(4).
	bodyHeaderLen = 8
	// frameHeaderLen is bodyLen(4) + crc32(4).
	frameHeaderLen = 8
	// maxBodyLen caps the framed payload length field.
	maxBodyLen = bodyHeaderLen + maxJobLen + maxKeyLen + maxDataLen
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// validate checks the record against the codec bounds.
func (r *Record) validate() error {
	if r.Kind < KindSubmitted || r.Kind > KindGroup {
		return fmt.Errorf("store: invalid record kind %d", r.Kind)
	}
	if r.Job == "" || len(r.Job) > maxJobLen {
		return fmt.Errorf("store: job id length %d out of range [1, %d]", len(r.Job), maxJobLen)
	}
	if len(r.Key) > maxKeyLen {
		return fmt.Errorf("store: key length %d exceeds %d", len(r.Key), maxKeyLen)
	}
	if len(r.Data) > maxDataLen {
		return fmt.Errorf("store: data length %d exceeds %d", len(r.Data), maxDataLen)
	}
	return nil
}

// appendBody appends the record's body encoding (no frame) to dst.
func appendBody(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Kind), byte(len(r.Job)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Data)))
	dst = append(dst, r.Job...)
	dst = append(dst, r.Key...)
	dst = append(dst, r.Data...)
	return dst
}

// decodeBody decodes an exact body encoding. The returned record owns its
// bytes (Data is copied), so callers may discard or reuse b.
func decodeBody(b []byte) (Record, error) {
	if len(b) < bodyHeaderLen {
		return Record{}, fmt.Errorf("store: record body too short (%d bytes)", len(b))
	}
	r := Record{Kind: Kind(b[0])}
	jobLen := int(b[1])
	keyLen := int(binary.LittleEndian.Uint16(b[2:4]))
	dataLen := int(binary.LittleEndian.Uint32(b[4:8]))
	if dataLen > maxDataLen {
		return Record{}, fmt.Errorf("store: record data length %d exceeds %d", dataLen, maxDataLen)
	}
	if want := bodyHeaderLen + jobLen + keyLen + dataLen; len(b) != want {
		return Record{}, fmt.Errorf("store: record body length %d, header implies %d", len(b), want)
	}
	off := bodyHeaderLen
	r.Job = string(b[off : off+jobLen])
	off += jobLen
	r.Key = string(b[off : off+keyLen])
	off += keyLen
	if dataLen > 0 {
		r.Data = append([]byte(nil), b[off:off+dataLen]...)
	}
	if err := r.validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// appendFrame appends the framed encoding of r to dst:
//
//	uint32le bodyLen | uint32le crc32c(body) | body
//
// The CRC covers the body only; the length field is validated by range
// checks at decode time and the CRC then proves the window it selected.
func appendFrame(dst []byte, r *Record) ([]byte, error) {
	if err := r.validate(); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	dst = appendBody(dst, r)
	body := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, crcTable))
	return dst, nil
}

// decodeFrame decodes one framed record from the front of b and reports the
// bytes consumed. Any error means the prefix of b is not an intact frame —
// during replay that is a torn or corrupt tail, and the log is truncated at
// this offset.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, fmt.Errorf("store: truncated frame header (%d bytes)", len(b))
	}
	bodyLen := int(binary.LittleEndian.Uint32(b[0:4]))
	if bodyLen < bodyHeaderLen || bodyLen > maxBodyLen {
		return Record{}, 0, fmt.Errorf("store: frame body length %d out of range [%d, %d]", bodyLen, bodyHeaderLen, maxBodyLen)
	}
	if len(b) < frameHeaderLen+bodyLen {
		return Record{}, 0, fmt.Errorf("store: truncated frame body (%d of %d bytes)", len(b)-frameHeaderLen, bodyLen)
	}
	body := b[frameHeaderLen : frameHeaderLen+bodyLen]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return Record{}, 0, fmt.Errorf("store: frame CRC mismatch (%08x != %08x)", got, want)
	}
	r, err := decodeBody(body)
	if err != nil {
		return Record{}, 0, err
	}
	return r, frameHeaderLen + bodyLen, nil
}
