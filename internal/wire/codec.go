package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/httpserver"
)

// The codec layer translates propagation-plane messages to and from frame
// payloads. It is a hand-rolled streaming binary format — uvarint lengths
// and counts, raw bytes for values — rather than encoding/json or gob:
// every committed transaction and every rendered page crosses this path, so
// the encoding must be allocation-lean and byte-stable across processes.

// ErrCodec wraps every payload decoding failure.
var ErrCodec = errors.New("wire: malformed payload")

// appendUvarint appends v as a uvarint.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBytes appends a length-prefixed byte slice.
func appendBytes(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// decoder consumes a payload front to back, latching the first error so
// call sites read fields linearly and check once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCodec, what)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	if n > 1 && d.b[n-1] == 0 {
		// A zero final byte pads the value: accepting it would give one
		// value two encodings.
		d.fail(what + " not minimally encoded")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// uvarintSize is the length of v's uvarint encoding.
func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// bytesSize is the length of an n-byte length-prefixed field.
func bytesSize(n int) int { return uvarintSize(uint64(n)) + n }

func (d *decoder) bytes(what string) []byte {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail(what)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) string(what string) string { return string(d.bytes(what)) }

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail(what)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// done reports the latched error, also failing if trailing bytes remain —
// a long payload means the two ends disagree about the message shape.
func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	return d.err
}

// appendTime appends a wall-clock instant as unix nanoseconds (two's
// complement via zigzag is unnecessary: all times here are after 1970).
func appendTime(dst []byte, t time.Time) []byte {
	return appendUvarint(dst, timeNanos(t))
}

// timeNanos is the uvarint appendTime writes for t; the zero time is 0.
func timeNanos(t time.Time) uint64 {
	if t.IsZero() {
		return 0
	}
	return uint64(t.UnixNano())
}

func (d *decoder) time(what string) time.Time {
	v := d.uvarint(what)
	if v == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(v))
}

// EncodeTransaction renders a committed transaction as a TypeTxn payload.
func EncodeTransaction(dst []byte, tx db.Transaction) []byte {
	dst = appendUvarint(dst, uint64(tx.LSN))
	dst = appendUvarint(dst, uint64(tx.TraceID))
	dst = appendTime(dst, tx.Commit)
	dst = appendUvarint(dst, uint64(len(tx.Changes)))
	for _, c := range tx.Changes {
		dst = appendString(dst, c.Table)
		dst = appendString(dst, c.Key)
		flags := byte(c.Op) & 1
		if c.Created {
			flags |= 2
		}
		dst = append(dst, flags)
		dst = appendUvarint(dst, uint64(len(c.Cols)))
		// Map order is not deterministic; the receiver rebuilds a map, so
		// ordering only matters for byte-identity of encodings, which
		// nothing depends on.
		for k, v := range c.Cols {
			dst = appendString(dst, k)
			dst = appendString(dst, v)
		}
	}
	return dst
}

// DecodeTransaction parses a TypeTxn payload.
func DecodeTransaction(p []byte) (db.Transaction, error) {
	d := &decoder{b: p}
	tx := db.Transaction{
		LSN:     int64(d.uvarint("lsn")),
		TraceID: int64(d.uvarint("trace id")),
		Commit:  d.time("commit time"),
	}
	nc := d.uvarint("change count")
	if d.err == nil && nc > uint64(len(p)) {
		// A count larger than the remaining bytes cannot be legitimate;
		// reject before allocating.
		d.fail("change count exceeds payload")
	}
	for i := uint64(0); i < nc && d.err == nil; i++ {
		c := db.Change{
			Table: d.string("table"),
			Key:   d.string("key"),
		}
		flags := d.byte("change flags")
		c.Op = db.Op(flags & 1)
		c.Created = flags&2 != 0
		ncols := d.uvarint("column count")
		if d.err == nil && ncols > uint64(len(p)) {
			d.fail("column count exceeds payload")
		}
		if d.err == nil && ncols > 0 && c.Op == db.OpPut {
			c.Cols = make(map[string]string, ncols)
		}
		for j := uint64(0); j < ncols && d.err == nil; j++ {
			k := d.string("column key")
			v := d.string("column value")
			if c.Cols != nil {
				c.Cols[k] = v
			}
		}
		tx.Changes = append(tx.Changes, c)
	}
	if err := d.done(); err != nil {
		return db.Transaction{}, err
	}
	return tx, nil
}

// EncodeObject renders one cache object: an entry of a TypePutBatch payload
// or the object of a TypeServe result.
func EncodeObject(dst []byte, obj *cache.Object) []byte {
	dst = appendString(dst, string(obj.Key))
	dst = appendString(dst, obj.ContentType)
	dst = appendUvarint(dst, uint64(obj.Version))
	dst = appendTime(dst, obj.StoredAt)
	return appendBytes(dst, obj.Value)
}

// DecodeObject parses one EncodeObject encoding. The object's Value is copied out
// of the payload so it can outlive the connection's read buffer (cached
// objects are immutable and long-lived by contract).
func DecodeObject(p []byte) (*cache.Object, error) {
	d := &decoder{b: p}
	obj := &cache.Object{
		Key:         cache.Key(d.string("key")),
		ContentType: d.string("content type"),
		Version:     int64(d.uvarint("version")),
		StoredAt:    d.time("stored at"),
	}
	obj.Value = append([]byte(nil), d.bytes("value")...)
	if err := d.done(); err != nil {
		return nil, err
	}
	return obj, nil
}

// objectSize is len(EncodeObject(nil, obj)), computed without encoding.
func objectSize(obj *cache.Object) int {
	return bytesSize(len(obj.Key)) + bytesSize(len(obj.ContentType)) +
		uvarintSize(uint64(obj.Version)) + uvarintSize(timeNanos(obj.StoredAt)) +
		bytesSize(len(obj.Value))
}

// EncodeObjects renders an ordered batch of cache objects as a TypePutBatch
// payload: the object count, then each object's EncodeObject bytes behind a
// length prefix.
func EncodeObjects(dst []byte, objs []*cache.Object) []byte {
	dst = appendUvarint(dst, uint64(len(objs)))
	for _, obj := range objs {
		dst = appendUvarint(dst, uint64(objectSize(obj)))
		dst = EncodeObject(dst, obj)
	}
	return dst
}

// DecodeObjects parses a TypePutBatch payload, in order. It decodes every
// object before returning any, so a malformed payload yields none.
func DecodeObjects(p []byte) ([]*cache.Object, error) {
	d := &decoder{b: p}
	n := d.uvarint("object count")
	if d.err == nil && n > uint64(len(d.b)) {
		// Every object takes at least one byte; reject before allocating.
		d.fail("object count exceeds payload")
	}
	if d.err != nil {
		return nil, d.err
	}
	objs := make([]*cache.Object, 0, n)
	for i := uint64(0); i < n; i++ {
		b := d.bytes("object")
		if d.err != nil {
			return nil, d.err
		}
		obj, err := DecodeObject(b)
		if err != nil {
			return nil, err
		}
		objs = append(objs, obj)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return objs, nil
}

// batchPayloads encodes objs as TypePutBatch payloads of at most MaxPayload
// bytes each, in order. It fails only for an object too large for any
// frame.
func batchPayloads(objs []*cache.Object) ([][]byte, error) {
	var out [][]byte
	for len(objs) > 0 {
		// The full batch's count prefix bounds every sub-batch's.
		n, size := 0, uvarintSize(uint64(len(objs)))
		for ; n < len(objs); n++ {
			s := bytesSize(objectSize(objs[n]))
			if size+s > MaxPayload {
				break
			}
			size += s
		}
		if n == 0 {
			return nil, fmt.Errorf("wire: object %q does not fit in one frame", objs[0].Key)
		}
		out = append(out, EncodeObjects(make([]byte, 0, size), objs[:n]))
		objs = objs[n:]
	}
	return out, nil
}

// EncodeString renders a bare string payload (TypeInvalidate key,
// TypeInvalidatePrefix prefix, TypeError message, TypeServe path).
func EncodeString(dst []byte, s string) []byte { return appendString(dst, s) }

// DecodeString parses a bare string payload.
func DecodeString(p []byte) (string, error) {
	d := &decoder{b: p}
	s := d.string("string")
	if err := d.done(); err != nil {
		return "", err
	}
	return s, nil
}

// EncodeUint renders a bare uvarint payload (LSN answers, invalidation
// counts).
func EncodeUint(dst []byte, v uint64) []byte { return appendUvarint(dst, v) }

// DecodeUint parses a bare uvarint payload.
func DecodeUint(p []byte) (uint64, error) {
	d := &decoder{b: p}
	v := d.uvarint("uvarint")
	if err := d.done(); err != nil {
		return 0, err
	}
	return v, nil
}

// Pong is a node's answer to a dispatcher health probe: readiness plus the
// node's overload signal (see overload.Limiter.Load).
type Pong struct {
	Ready bool
	Load  float64
}

// EncodePong renders a TypePing ack payload.
func EncodePong(dst []byte, p Pong) []byte {
	b := byte(0)
	if p.Ready {
		b = 1
	}
	dst = append(dst, b)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Load))
}

// DecodePong parses a TypePing ack payload.
func DecodePong(p []byte) (Pong, error) {
	d := &decoder{b: p}
	out := Pong{Ready: d.byte("ready") == 1}
	if d.err == nil && len(d.b) >= 8 {
		out.Load = math.Float64frombits(binary.BigEndian.Uint64(d.b[:8]))
		d.b = d.b[8:]
	} else {
		d.fail("load")
	}
	if err := d.done(); err != nil {
		return Pong{}, err
	}
	return out, nil
}

// ServeResult is a node's answer to a forwarded request: the outcome, the
// served object when one exists, and the node-side error message otherwise.
type ServeResult struct {
	Outcome httpserver.Outcome
	Object  *cache.Object
	Err     string
}

// EncodeServeResult renders a TypeServe ack payload.
func EncodeServeResult(dst []byte, r ServeResult) []byte {
	dst = append(dst, byte(r.Outcome))
	dst = appendString(dst, r.Err)
	if r.Object == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return EncodeObject(dst, r.Object)
}

// DecodeServeResult parses a TypeServe ack payload.
func DecodeServeResult(p []byte) (ServeResult, error) {
	d := &decoder{b: p}
	r := ServeResult{
		Outcome: httpserver.Outcome(d.byte("outcome")),
		Err:     d.string("error"),
	}
	has := d.byte("object flag")
	if err := d.err; err != nil {
		return ServeResult{}, err
	}
	if has == 1 {
		obj, err := DecodeObject(d.b)
		if err != nil {
			return ServeResult{}, err
		}
		r.Object = obj
		return r, nil
	}
	if err := d.done(); err != nil {
		return ServeResult{}, err
	}
	return r, nil
}
