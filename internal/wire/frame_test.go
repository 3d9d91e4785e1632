package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/httpserver"
)

// definedTypes lists every frame type of this protocol version.
func definedTypes() []Type {
	var ts []Type
	for t := Type(0); t < numTypes; t++ {
		if t.defined() {
			ts = append(ts, t)
		}
	}
	return ts
}

// TestFrameRoundTrip encodes frames of assorted sizes and types and reads
// them back.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	types := definedTypes()
	sizes := []int{0, 1, 7, 64, 1000, 65537}
	for _, size := range sizes {
		payload := make([]byte, size)
		rng.Read(payload)
		f := Frame{Type: types[rng.Intn(len(types))], ID: rng.Uint64(), Payload: payload}

		buf := AppendFrame(nil, f)
		if len(buf) != f.wireSize() {
			t.Fatalf("size %d: encoded %d bytes, wireSize says %d", size, len(buf), f.wireSize())
		}

		got, n, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("size %d: ReadFrame: %v", size, err)
		}
		if n != len(buf) {
			t.Fatalf("size %d: consumed %d of %d", size, n, len(buf))
		}
		if got.Type != f.Type || got.ID != f.ID || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("size %d: decode mismatch", size)
		}
	}
}

// TestFrameStreamSequence reads several back-to-back frames off one stream.
func TestFrameStreamSequence(t *testing.T) {
	var buf []byte
	want := []Frame{
		{Type: TypePing, ID: 1},
		{Type: TypePutBatch, ID: 2, Payload: []byte("body")},
		{Type: TypeAck, ID: 2, Payload: []byte{0}},
	}
	for _, f := range want {
		buf = AppendFrame(buf, f)
	}
	r := bytes.NewReader(buf)
	for i, w := range want {
		f, _, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != w.Type || f.ID != w.ID || !bytes.Equal(f.Payload, w.Payload) {
			t.Fatalf("frame %d mismatch: %+v", i, f)
		}
	}
	if _, _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: want io.EOF, got %v", err)
	}
}

// TestFrameTruncation verifies every possible truncation point is rejected
// with io.ErrUnexpectedEOF (io.EOF only for the empty stream).
func TestFrameTruncation(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: TypeTxn, ID: 99, Payload: []byte("truncate me please")})
	for n := 0; n < len(full); n++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:n]))
		if n == 0 {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("ReadFrame(empty): want io.EOF, got %v", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("ReadFrame(%d/%d bytes): want io.ErrUnexpectedEOF, got %v", n, len(full), err)
		}
	}
}

// TestFrameCorruption flips every byte of an encoded frame and requires
// every mutation to be rejected — the CRC covers everything the header
// checks don't.
func TestFrameCorruption(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: TypePutBatch, ID: 7, Payload: []byte("checksummed payload")})
	for i := range full {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), full...)
			mut[i] ^= flip
			if _, _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
				t.Fatalf("ReadFrame accepted corruption at byte %d (flip %#x)", i, flip)
			}
		}
	}
}

// TestFrameRejectsSpecificCorruptions pins the error identity for each
// header field and for the checksum.
func TestFrameRejectsSpecificCorruptions(t *testing.T) {
	base := AppendFrame(nil, Frame{Type: TypeAck, ID: 1, Payload: []byte("x")})
	for _, c := range []struct {
		name   string
		mutate func(b []byte)
		want   error
	}{
		{"bad magic", func(b []byte) { b[0] = 'X' }, ErrBadMagic},
		{"bad version", func(b []byte) { b[4] = 99 }, ErrBadVersion},
		{"zero type", func(b []byte) { b[5] = 0 }, ErrBadType},
		{"reserved type slot", func(b []byte) { b[5] = byte(TypeLSN + 1) }, ErrBadType},
		{"type past the last", func(b []byte) { b[5] = byte(numTypes) }, ErrBadType},
		{"nonzero reserved bytes", func(b []byte) { b[7] = 1 }, ErrBadMagic},
		{"oversize length", func(b []byte) { b[16], b[17], b[18], b[19] = 0xff, 0xff, 0xff, 0xff }, ErrTooLarge},
		{"bad crc", func(b []byte) { b[len(b)-1] ^= 0xff }, ErrChecksum},
	} {
		mut := append([]byte(nil), base...)
		c.mutate(mut)
		if _, _, err := ReadFrame(bytes.NewReader(mut)); !errors.Is(err, c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

// TestAppendFramePanicsOnOversize pins the programming-error contract.
func TestAppendFramePanicsOnOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendFrame accepted a payload beyond MaxPayload")
		}
	}()
	AppendFrame(nil, Frame{Type: TypeAck, Payload: make([]byte, MaxPayload+1)})
}

// TestTransactionCodecRoundTrip round-trips a representative transaction:
// puts with columns, a delete, zero and set Created flags.
func TestTransactionCodecRoundTrip(t *testing.T) {
	tx := db.Transaction{
		LSN:     12345,
		TraceID: 777,
		Commit:  time.Unix(0, 888999111).UTC(),
		Changes: []db.Change{
			{Table: "results", Key: "ev1", Op: db.OpPut, Created: true,
				Cols: map[string]string{"gold": "jp", "score": "241.5"}},
			{Table: "results", Key: "ev2", Op: db.OpDelete},
			{Table: "news", Key: "s0", Op: db.OpPut,
				Cols: map[string]string{"title": "headline"}},
		},
	}
	got, err := DecodeTransaction(EncodeTransaction(nil, tx))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.LSN != tx.LSN || got.TraceID != tx.TraceID || !got.Commit.Equal(tx.Commit) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Changes) != len(tx.Changes) {
		t.Fatalf("change count %d != %d", len(got.Changes), len(tx.Changes))
	}
	for i, want := range tx.Changes {
		g := got.Changes[i]
		if g.Table != want.Table || g.Key != want.Key || g.Op != want.Op || g.Created != want.Created {
			t.Fatalf("change %d mismatch: %+v", i, g)
		}
		if !reflect.DeepEqual(g.Cols, want.Cols) {
			t.Fatalf("change %d cols mismatch: %v != %v", i, g.Cols, want.Cols)
		}
	}
}

// TestObjectCodecRoundTrip round-trips a cache object and checks the value
// no longer aliases the encoded payload.
func TestObjectCodecRoundTrip(t *testing.T) {
	obj := &cache.Object{
		Key:         "/en/home/day01",
		Value:       []byte("<html>day 1</html>"),
		ContentType: "text/html; charset=utf-8",
		Version:     41,
		StoredAt:    time.Unix(0, 555).UTC(),
	}
	payload := EncodeObject(nil, obj)
	got, err := DecodeObject(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Key != obj.Key || got.ContentType != obj.ContentType ||
		got.Version != obj.Version || !got.StoredAt.Equal(obj.StoredAt) ||
		!bytes.Equal(got.Value, obj.Value) {
		t.Fatalf("object mismatch: %+v", got)
	}
	for i := range payload {
		payload[i] = 0xaa
	}
	if !bytes.Equal(got.Value, obj.Value) {
		t.Fatal("decoded value aliases the payload buffer")
	}
}

// TestObjectsCodecRoundTrip round-trips put-batch payloads — empty, one
// object, and a mix of zero and set fields — in order, and pins objectSize
// to the encoder it mirrors.
func TestObjectsCodecRoundTrip(t *testing.T) {
	objs := []*cache.Object{
		{Key: "/en/home", Value: []byte("<html>home</html>"), ContentType: "text/html", Version: 9,
			StoredAt: time.Unix(0, 1e18).UTC()},
		{Key: "/ja/medals"},
		{Key: "frag:medals", Value: bytes.Repeat([]byte("x"), 300), Version: 1 << 40},
	}
	for _, obj := range objs {
		if got, want := objectSize(obj), len(EncodeObject(nil, obj)); got != want {
			t.Fatalf("objectSize(%s) = %d, EncodeObject wrote %d", obj.Key, got, want)
		}
	}
	for _, batch := range [][]*cache.Object{nil, objs[:1], objs} {
		got, err := DecodeObjects(EncodeObjects(nil, batch))
		if err != nil {
			t.Fatalf("%d objects: decode: %v", len(batch), err)
		}
		if len(got) != len(batch) {
			t.Fatalf("%d objects: decoded %d", len(batch), len(got))
		}
		for i, want := range batch {
			g := got[i]
			if g.Key != want.Key || g.ContentType != want.ContentType || g.Version != want.Version ||
				!g.StoredAt.Equal(want.StoredAt) || !bytes.Equal(g.Value, want.Value) {
				t.Fatalf("object %d mismatch: %+v", i, g)
			}
		}
	}
}

// TestScalarCodecsRoundTrip covers the string, uint, pong and serve-result
// payloads.
func TestScalarCodecsRoundTrip(t *testing.T) {
	if s, err := DecodeString(EncodeString(nil, "/ja/medals")); err != nil || s != "/ja/medals" {
		t.Fatalf("string: %q, %v", s, err)
	}
	if v, err := DecodeUint(EncodeUint(nil, 1<<40+3)); err != nil || v != 1<<40+3 {
		t.Fatalf("uint: %d, %v", v, err)
	}
	p, err := DecodePong(EncodePong(nil, Pong{Ready: true, Load: 1.25, Installed: 300}))
	if err != nil || !p.Ready || p.Load != 1.25 || p.Installed != 300 {
		t.Fatalf("pong: %+v, %v", p, err)
	}

	r := ServeResult{Outcome: httpserver.OutcomeHit,
		Object: &cache.Object{Key: "/en/home", Value: []byte("hi"), Version: 3}}
	got, err := DecodeServeResult(EncodeServeResult(nil, r))
	if err != nil || got.Outcome != r.Outcome || got.Object == nil ||
		got.Object.Key != r.Object.Key || !bytes.Equal(got.Object.Value, r.Object.Value) {
		t.Fatalf("serve result: %+v, %v", got, err)
	}

	r = ServeResult{Outcome: httpserver.OutcomeError, Err: "boom"}
	got, err = DecodeServeResult(EncodeServeResult(nil, r))
	if err != nil || got.Err != "boom" || got.Object != nil {
		t.Fatalf("serve error result: %+v, %v", got, err)
	}
}

// TestCodecRejectsMalformedPayloads truncates every codec's encoding at
// every length and requires a clean ErrCodec, never a panic or a silent
// partial decode.
func TestCodecRejectsMalformedPayloads(t *testing.T) {
	tx := db.Transaction{LSN: 5, Changes: []db.Change{
		{Table: "t", Key: "k", Op: db.OpPut, Cols: map[string]string{"a": "b"}}}}
	payloads := map[string][]byte{
		"txn":    EncodeTransaction(nil, tx),
		"object": EncodeObject(nil, &cache.Object{Key: "k", Value: []byte("v")}),
		"objects": EncodeObjects(nil, []*cache.Object{
			{Key: "k", Value: []byte("v")}, {Key: "k2", Version: 3}}),
		"pong": EncodePong(nil, Pong{Ready: true, Load: 2, Installed: 300}),
		"serve": EncodeServeResult(nil, ServeResult{
			Object: &cache.Object{Key: "k", Value: []byte("v")}}),
	}
	decode := map[string]func([]byte) error{
		"txn":     func(b []byte) error { _, err := DecodeTransaction(b); return err },
		"object":  func(b []byte) error { _, err := DecodeObject(b); return err },
		"objects": func(b []byte) error { _, err := DecodeObjects(b); return err },
		"pong":    func(b []byte) error { _, err := DecodePong(b); return err },
		"serve":   func(b []byte) error { _, err := DecodeServeResult(b); return err },
	}
	for name, full := range payloads {
		for n := 0; n < len(full); n++ {
			if err := decode[name](full[:n]); err == nil {
				t.Fatalf("%s: accepted truncation to %d/%d bytes", name, n, len(full))
			}
		}
		// Trailing garbage is a shape disagreement, not slack.
		if err := decode[name](append(append([]byte(nil), full...), 0)); err == nil {
			t.Fatalf("%s: accepted trailing byte", name)
		}
	}
	// A hostile count must be rejected before allocation.
	huge := appendUvarint(appendUvarint(appendUvarint(nil, 1), 1), 0) // lsn, trace, commit
	huge = appendUvarint(huge, 1<<40)                                 // change count
	if _, err := DecodeTransaction(huge); !errors.Is(err, ErrCodec) {
		t.Fatalf("hostile change count: got %v", err)
	}
	// A put-batch count beyond the remaining bytes is rejected before
	// allocation, one beyond the objects present is a truncation, and a
	// padded count is not a second encoding of the same batch.
	one := payloads["objects"][1:] // the objects after the count
	for name, p := range map[string][]byte{
		"hostile object count":  appendUvarint(nil, 1<<40),
		"object count too high": append(appendUvarint(nil, 3), one...),
		"padded object count":   append([]byte{0x82, 0x00}, one...),
	} {
		if _, err := DecodeObjects(p); !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: got %v, want ErrCodec", name, err)
		}
	}
}
