// Package wire is the network transport between a complex and its serving
// nodes: a framed binary protocol over TCP carrying trigger-monitor pushes
// into the nodes' caches and the Network Dispatcher's serves and health
// probes (sections 3-4, figures 5-6). A node process, NewCacheNode, is a
// cache and nothing else.
//
// The rest of the repository wires those flows as in-process calls, which
// stays the default (simulations and chaos runs need determinism). This
// package provides the TCP alternative: a Server that dispatches frame
// types to registered handlers, and a Client with connection pooling,
// per-RPC deadlines, exponential-backoff reconnect, and a bounded in-flight
// window for backpressure. Codec functions translate cache push/invalidate
// messages (and db.Transaction log records, bench only) to and from frame
// payloads.
//
// Frame format (big-endian), checksummed so a torn or corrupted stream is
// detected instead of decoded:
//
//	offset  size  field
//	0       4     magic "DUPW"
//	4       1     protocol version (currently 1)
//	5       1     frame type
//	6       2     reserved (must be zero)
//	8       8     request id (correlates a response to its request)
//	16      4     payload length n (max 16 MiB)
//	20      n     payload
//	20+n    4     CRC-32 (IEEE) over bytes [4, 20+n)
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Type identifies what a frame carries and therefore which handler a server
// dispatches it to.
type Type uint8

// The frame types of protocol version 1. Responses reuse the request's id;
// TypeAck carries a type-specific result payload and TypeError a message.
const (
	// TypeAck is a successful response; the payload depends on the request
	// type it answers.
	TypeAck Type = iota + 1
	// TypeError is a failure response; the payload is the error message.
	TypeError
	// TypeTxn ships one committed db.Transaction (master -> replica log
	// shipping, bench only). The ack payload is the replica's LSN after
	// applying.
	TypeTxn
	// TypeLSN asks a replica for its current LSN (uvarint ack payload).
	TypeLSN
	// Reserved: the retired single-object TypePush, which TypePutBatch
	// replaced. The slot keeps every later type's number on the wire, and a
	// frame carrying it is rejected as ErrBadType.
	_
	// TypeInvalidate drops one key from a node's cache.
	TypeInvalidate
	// TypeInvalidatePrefix drops every key under a prefix.
	TypeInvalidatePrefix
	// TypePing is a dispatcher health probe; the ack carries readiness, the
	// node's load signal and its cache's installed version.
	TypePing
	// TypeServe asks a node to satisfy one request path (the Network
	// Dispatcher forwarding a connection); the ack carries the outcome and
	// the served object.
	TypeServe
	// TypePutBatch installs an ordered wave of cache objects on a node in
	// one round trip; a wave larger than MaxPayload spans several frames.
	TypePutBatch
	numTypes
)

// typeNames names every defined type; the zero type and the reserved slot
// have no name.
var typeNames = [numTypes]string{
	TypeAck:              "ack",
	TypeError:            "error",
	TypeTxn:              "txn",
	TypeLSN:              "lsn",
	TypeInvalidate:       "invalidate",
	TypeInvalidatePrefix: "invalidate-prefix",
	TypePing:             "ping",
	TypeServe:            "serve",
	TypePutBatch:         "put-batch",
}

// defined reports whether t is a frame type of this protocol version.
func (t Type) defined() bool { return t < numTypes && typeNames[t] != "" }

// String names the frame type.
func (t Type) String() string {
	if !t.defined() {
		return fmt.Sprintf("type(%d)", uint8(t))
	}
	return typeNames[t]
}

// Version is the protocol version this package speaks. A frame with any
// other version is rejected, so incompatible ends fail loudly at the first
// frame instead of misinterpreting payloads.
const Version = 1

// MaxPayload bounds a frame's payload. A length field beyond it means a
// corrupt or hostile stream, not a big message: senders split anything
// larger (a page wave goes out as several TypePutBatch frames), so no
// legitimate frame exceeds it.
const MaxPayload = 16 << 20

// headerSize is the fixed prefix before the payload; trailerSize the CRC.
const (
	headerSize  = 20
	trailerSize = 4
)

var magic = [4]byte{'D', 'U', 'P', 'W'}

// The decode errors. A stream that ends mid-frame is io.ErrUnexpectedEOF.
var (
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrBadType    = errors.New("wire: unknown frame type")
	ErrTooLarge   = errors.New("wire: frame payload exceeds limit")
	ErrChecksum   = errors.New("wire: frame checksum mismatch")
)

// Frame is one protocol message: a type, a request-correlation id, and an
// opaque payload interpreted per type by the codec layer.
type Frame struct {
	Type    Type
	ID      uint64
	Payload []byte
}

// wireSize returns the full encoded size of the frame.
func (f Frame) wireSize() int { return headerSize + len(f.Payload) + trailerSize }

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. It panics if the payload exceeds MaxPayload — producing an
// undecodable frame is a programming error.
func AppendFrame(dst []byte, f Frame) []byte {
	if len(f.Payload) > MaxPayload {
		panic(fmt.Sprintf("wire: payload %d exceeds MaxPayload", len(f.Payload)))
	}
	start := len(dst)
	dst = append(dst, magic[:]...)
	dst = append(dst, Version, byte(f.Type), 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	sum := crc32.ChecksumIEEE(dst[start+4:])
	return binary.BigEndian.AppendUint32(dst, sum)
}

// WriteFrame encodes and writes one frame, returning the bytes written.
func WriteFrame(w io.Writer, f Frame) (int, error) {
	buf := AppendFrame(make([]byte, 0, f.wireSize()), f)
	return w.Write(buf)
}

// parseHeader validates a frame's fixed header and returns its type and
// payload length. The checksum, which covers the payload too, is the
// caller's to check.
func parseHeader(hdr *[headerSize]byte) (Type, uint32, error) {
	if [4]byte(hdr[:4]) != magic {
		return 0, 0, ErrBadMagic
	}
	if hdr[4] != Version {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	t := Type(hdr[5])
	if !t.defined() {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadType, hdr[5])
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return 0, 0, fmt.Errorf("%w: nonzero reserved bytes", ErrBadMagic)
	}
	n := binary.BigEndian.Uint32(hdr[16:20])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("%w: %d", ErrTooLarge, n)
	}
	return t, n, nil
}

// ReadFrame reads exactly one frame from r, returning it and the bytes
// consumed. The header is validated before the payload is allocated, so a
// corrupt length can never force a huge allocation. A clean EOF before any
// byte returns io.EOF; a stream ending mid-frame returns
// io.ErrUnexpectedEOF; corruption returns ErrBadMagic, ErrBadVersion,
// ErrBadType, ErrTooLarge or ErrChecksum.
func ReadFrame(r io.Reader) (Frame, int, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, 0, io.ErrUnexpectedEOF
		}
		return Frame{}, 0, err
	}
	t, n, err := parseHeader(&hdr)
	if err != nil {
		return Frame{}, 0, err
	}
	rest := make([]byte, int(n)+trailerSize)
	if _, err := io.ReadFull(r, rest); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, 0, io.ErrUnexpectedEOF
		}
		return Frame{}, 0, err
	}
	body := rest[:n]
	want := binary.BigEndian.Uint32(rest[n:])
	sum := crc32.ChecksumIEEE(hdr[4:])
	sum = crc32.Update(sum, crc32.IEEETable, body)
	if sum != want {
		return Frame{}, 0, ErrChecksum
	}
	total := headerSize + int(n) + trailerSize
	return Frame{Type: t, ID: binary.BigEndian.Uint64(hdr[8:16]), Payload: body}, total, nil
}
