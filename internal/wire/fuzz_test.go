package wire

import (
	"bytes"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/db"
)

// FuzzReadFrame asserts ReadFrame never panics on arbitrary bytes and
// that anything it accepts re-encodes byte-identically (the frame format is
// canonical: one encoding per frame).
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Type: TypePing, ID: 1}))
	f.Add(AppendFrame(nil, Frame{Type: TypePutBatch, ID: 42, Payload: []byte("page bytes")}))
	f.Add(AppendFrame(nil, Frame{Type: TypeTxn, ID: 7,
		Payload: EncodeTransaction(nil, db.Transaction{LSN: 3})}))
	f.Add([]byte("DUPW"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, headerSize+trailerSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n < headerSize+trailerSize || n > len(data) {
			t.Fatalf("accepted frame reports impossible size %d (input %d)", n, len(data))
		}
		if re := AppendFrame(nil, fr); !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted frame does not re-encode canonically")
		}
	})
}

// FuzzDecodeTransaction asserts the transaction codec never panics and
// that accepted payloads re-encode to something that decodes to the same
// transaction (maps make byte-identity too strong a property).
func FuzzDecodeTransaction(f *testing.F) {
	f.Add(EncodeTransaction(nil, db.Transaction{LSN: 1, Changes: []db.Change{
		{Table: "results", Key: "k", Op: db.OpPut, Cols: map[string]string{"a": "b"}}}}))
	f.Add(EncodeTransaction(nil, db.Transaction{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := DecodeTransaction(data)
		if err != nil {
			return
		}
		tx2, err := DecodeTransaction(EncodeTransaction(nil, tx))
		if err != nil {
			t.Fatalf("re-decode of accepted transaction failed: %v", err)
		}
		if tx2.LSN != tx.LSN || len(tx2.Changes) != len(tx.Changes) {
			t.Fatalf("decode not stable: %+v vs %+v", tx, tx2)
		}
	})
}

// FuzzDecodeObjects asserts the put-batch codec never panics and holds the
// format canonical: anything it accepts re-encodes byte-identically.
func FuzzDecodeObjects(f *testing.F) {
	f.Add(EncodeObjects(nil, []*cache.Object{
		{Key: "/en/home", Value: []byte("<html/>"), ContentType: "text/html", Version: 4,
			StoredAt: time.Unix(0, 99)},
		{Key: "frag:medals"}}))
	f.Add(EncodeObjects(nil, nil))
	f.Add([]byte{0x02, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, err := DecodeObjects(data)
		if err != nil {
			return
		}
		if re := EncodeObjects(nil, objs); !bytes.Equal(re, data) {
			t.Fatalf("accepted batch does not re-encode canonically:\n in  %x\n out %x", data, re)
		}
	})
}
