package storage

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes to the WAL batch decoder, which
// carries the stock rows, the replication metadata and the AV table's
// rows. The contract: a valid batch decodes to ops that re-encode to the
// same bytes, anything else comes back as ErrCorrupt — never a panic.
func FuzzDecodeBatch(f *testing.F) {
	rec := Record{Key: "product-0001", Name: "Product 1", Amount: 120, Class: NonRegular}
	f.Add(encodeBatch([]Op{PutOp(rec)}))
	f.Add(encodeBatch([]Op{DeleteOp("product-0001")}))
	f.Add(encodeBatch([]Op{DeltaOp("product-0001", -7)}))
	f.Add(encodeBatch([]Op{MetaPutOp("av/e/9", []byte{3, 'a', 'b', 'c', 50})}))
	f.Add(encodeBatch([]Op{MetaDeleteOp("av/o/11")}))
	f.Add(encodeBatch([]Op{MetaAddOp("av/product-0001", -30)}))
	f.Add(encodeBatch([]Op{MetaAddOp("av/αβ", 5), DeltaOp("αβ", -5), MetaPutOp("repl/log/1", nil)}))
	f.Add([]byte{})
	f.Add(encodeBatch([]Op{LoggedDeltaOp("product-0001", -7, 1)}))
	f.Add(encodeBatch([]Op{LoggedDeltaOp("product-0001", 5, 1<<20), MetaAddOp("av/product-0001", 5)}))
	f.Add(encodeBatch([]Op{LoggedDeltaOp("αβ", -1<<40, 1<<63), MetaAddOp("av/αβ", 1<<40-1)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeBatch(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		re := encodeBatch(ops)
		ops2, err := decodeBatch(re)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !bytes.Equal(re, encodeBatch(ops2)) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
