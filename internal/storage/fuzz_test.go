package storage

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes to the WAL batch decoder, which
// carries the stock rows, the replication metadata and the AV table's
// rows, each key spelled out or as a suffix of the previous op's. The
// contract: a valid batch decodes to ops whose canonical encoding
// decodes and re-encodes to the same bytes, anything else comes back as
// ErrCorrupt — never a panic.
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
	f.Add(encodeBatch([]Op{BalancedDeltaOp("product-0001", -1, 1)}))
	f.Add(encodeBatch([]Op{BalancedDeltaOp("product-0001", 5, 1<<20), MetaAddOp("av/product-0001", 3)}))
	f.Add(encodeBatch([]Op{BalancedDeltaOp("αβ", -1<<62, 1<<64-1), LoggedDeltaOp("αβ", 1<<62, 0)}))
	// Shared key prefixes: a replicated window in key order; an op that
	// shares the prefix of a metadata op before it; a first op that
	// claims a shared prefix; a prefix longer than the previous key.
	f.Add(encodeBatch([]Op{DeltaOp("product-0008", -1), DeltaOp("product-0009", 2), DeltaOp("product-0010", -3),
		DeltaOp("product-0100", 4), MetaPutOp("repl/applied/2", []byte{4})}))
	f.Add(encodeBatch([]Op{MetaPutOp("repl/applied/1", []byte{3}), MetaAddOp("repl/applied/2", 1),
		DeltaOp("product-0001", -1), DeltaOp("product-0001", 1)}))
	f.Add([]byte{0x01, 0x83, 0x00, 0x01, 'k', 0x02})
	f.Add([]byte{0x02, 0x03, 0x01, 'k', 0x02, 0x83, 0x02, 0x01, 'x', 0x02})

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
