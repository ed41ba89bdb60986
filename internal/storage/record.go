// Package storage implements the local database engine each avdb site
// runs: an ordered in-memory table (B+tree) with a write-ahead log and
// snapshot checkpoints for crash recovery. The schema is the paper's SCM
// table — product rows with a numeric stock amount and a regular /
// non-regular classification (which is what decides Delay vs Immediate
// update handling upstream).
//
// Mutations are applied in batches: one batch is one WAL record, so a
// transaction's writes become durable and visible atomically.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Class is a product's consistency classification. In the paper, an AV
// is defined exactly for the Regular products; NonRegular products take
// the Immediate Update path.
type Class uint8

// Product classes.
const (
	Regular Class = iota
	NonRegular
)

// String names the class.
func (c Class) String() string {
	if c == NonRegular {
		return "non-regular"
	}
	return "regular"
}

// Record is one product row.
type Record struct {
	Key    string // primary key, e.g. "product-0042"
	Name   string // display name
	Amount int64  // stock amount — the numeric datum AVs are defined on
	Class  Class
}

// Storage errors.
var (
	ErrNotFound = errors.New("storage: key not found")
	ErrClosed   = errors.New("storage: engine closed")
	ErrCorrupt  = errors.New("storage: corrupt data")
)

// encodeValue serializes the non-key fields of a record.
func encodeValue(r *Record) []byte {
	b := make([]byte, 0, 16+len(r.Name))
	b = binary.AppendVarint(b, r.Amount)
	b = append(b, byte(r.Class))
	b = binary.AppendUvarint(b, uint64(len(r.Name)))
	return append(b, r.Name...)
}

// decodeValue parses a value produced by encodeValue into rec.
func decodeValue(key string, v []byte, rec *Record) error {
	amount, n := binary.Varint(v)
	if n <= 0 {
		return ErrCorrupt
	}
	v = v[n:]
	if len(v) < 1 {
		return ErrCorrupt
	}
	class := Class(v[0])
	v = v[1:]
	nameLen, n := binary.Uvarint(v)
	if n <= 0 || nameLen > uint64(len(v)-n) {
		return ErrCorrupt
	}
	rec.Key = key
	rec.Amount = amount
	rec.Class = class
	rec.Name = string(v[n : n+int(nameLen)])
	return nil
}

// OpKind tags one mutation inside a batch.
type OpKind uint8

// Mutation kinds.
const (
	OpPut OpKind = iota + 1
	OpDelete
	OpDelta
	OpMetaPut
	OpMetaDelete
	// OpMetaAdd adds Delta to a varint metadata row (a missing row counts
	// as 0 and is created, even by a zero delta). The AV table's balances
	// are such rows.
	OpMetaAdd
	// OpLoggedDelta is an OpDelta that is also outbound replication entry
	// Seq: applying it adds Delta to the row and writes the entry's
	// LogKey(Seq) metadata row (the OpMetaPut an older WAL carries beside
	// a plain OpDelta), so the key and delta are logged once. It leaves
	// the key's balance row alone: a WAL that carries it beside an
	// OpMetaAdd of BalanceKey(Key) replays both, as written.
	OpLoggedDelta
	// OpBalancedDelta is an OpLoggedDelta whose Delta is also the change
	// of the key's AV balance: applying it adds Delta to the row, writes
	// LogKey(Seq) and adds Delta to the BalanceKey(Key) metadata row (the
	// OpMetaAdd an older WAL carries beside an OpLoggedDelta), so a Delay
	// Update's stock, log entry and balance change are one op.
	OpBalancedDelta
)

// MetaPrefix namespaces internal metadata rows (replication watermarks,
// outbound delta logs, the AV table's rows) inside the same tree and WAL
// as user rows, so one Apply batch can mutate data and metadata
// atomically — the property durable replication correctness rests on —
// and every batch shares one LSN order. The prefix sorts before every
// user key, and Scan/Len ignore it.
const MetaPrefix = "\x00m\x00"

// Op is one mutation. For OpPut, Rec carries the full row; for OpDelta,
// Delta is added to the existing row's Amount; OpDelete removes the
// row; OpMetaPut/OpMetaDelete store or remove a raw metadata value
// under MetaPrefix+Key; OpMetaAdd adds Delta to a varint metadata
// value there; OpLoggedDelta is OpDelta plus replication entry Seq;
// OpBalancedDelta is OpLoggedDelta plus the same Delta to the key's
// balance row.
type Op struct {
	Kind  OpKind
	Key   string
	Rec   Record
	Delta int64
	Value []byte
	Seq   uint64
}

// PutOp builds an OpPut.
func PutOp(rec Record) Op { return Op{Kind: OpPut, Key: rec.Key, Rec: rec} }

// DeleteOp builds an OpDelete.
func DeleteOp(key string) Op { return Op{Kind: OpDelete, Key: key} }

// DeltaOp builds an OpDelta.
func DeltaOp(key string, delta int64) Op { return Op{Kind: OpDelta, Key: key, Delta: delta} }

// MetaPutOp builds an OpMetaPut.
func MetaPutOp(key string, value []byte) Op { return Op{Kind: OpMetaPut, Key: key, Value: value} }

// MetaDeleteOp builds an OpMetaDelete.
func MetaDeleteOp(key string) Op { return Op{Kind: OpMetaDelete, Key: key} }

// MetaAddOp builds an OpMetaAdd.
func MetaAddOp(key string, delta int64) Op { return Op{Kind: OpMetaAdd, Key: key, Delta: delta} }

// LoggedDeltaOp builds an OpLoggedDelta.
func LoggedDeltaOp(key string, delta int64, seq uint64) Op {
	return Op{Kind: OpLoggedDelta, Key: key, Delta: delta, Seq: seq}
}

// BalancedDeltaOp builds an OpBalancedDelta.
func BalancedDeltaOp(key string, delta int64, seq uint64) Op {
	return Op{Kind: OpBalancedDelta, Key: key, Delta: delta, Seq: seq}
}

// BalancePrefix namespaces the AV table's balance rows: key's balance
// (avail + held) is the varint metadata row BalanceKey(key).
const BalancePrefix = "av/"

// BalanceKey returns the metadata key of key's AV balance row.
func BalanceKey(key string) string { return BalancePrefix + key }

// LogPrefix namespaces a site's outbound replication log: entry seq is
// the metadata row LogKey(seq), holding the key and delta the entry
// replicates, and the rows sort in sequence order.
const LogPrefix = "repl/log/"

// logDigits is the width a log row's sequence is zero-padded to: the
// decimal digits of the largest uint64.
const logDigits = 20

// logRowLen is the length of a log row's table key, MetaPrefix+LogKey.
const logRowLen = len(MetaPrefix) + len(LogPrefix) + logDigits

// logRow spells replication entry seq's table key, MetaPrefix +
// LogKey(seq), into an array, so finding its stripe allocates nothing.
func logRow(seq uint64) (row [logRowLen]byte) {
	n := copy(row[:], MetaPrefix+LogPrefix)
	for i := logRowLen - 1; i >= n; i-- {
		row[i] = '0' + byte(seq%10)
		seq /= 10
	}
	return row
}

// LogKey returns the metadata key of replication entry seq (the
// sequence zero-padded to 20 digits).
func LogKey(seq uint64) string {
	row := logRow(seq)
	return string(row[len(MetaPrefix):])
}

// encodeLogValue serializes a replication entry's (key, delta).
func encodeLogValue(key string, delta int64) []byte {
	return append(binary.AppendVarint(nil, delta), key...)
}

// ParseLogRow decodes the replication log row (k, v) found under
// LogPrefix by a metadata scan into its sequence, key and delta.
func ParseLogRow(k string, v []byte) (seq uint64, key string, delta int64, err error) {
	seq, err = strconv.ParseUint(strings.TrimPrefix(k, LogPrefix), 10, 64)
	if err != nil {
		return 0, "", 0, fmt.Errorf("%w: replication log key %q", ErrCorrupt, k)
	}
	delta, n := binary.Varint(v)
	if n <= 0 {
		return 0, "", 0, fmt.Errorf("%w: replication log row %q", ErrCorrupt, k)
	}
	return seq, string(v[n:]), delta, nil
}

// opSharedKey is the kind byte's flag for an op whose key is written
// as a suffix of the previous op's key in the same batch: uvarint
// shared, uvarint len(suffix), suffix. Kinds stop at 8, so the high bit
// is free, and an op without it spells its key out in full.
const opSharedKey = 0x80

// minSharedKey is the shortest common prefix worth the flag: writing the
// shared length costs a byte, so sharing 2 saves at least 1.
const minSharedKey = 2

// sharedPrefix is the length of the common prefix of a and b.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// encodeBatch serializes a batch of ops into one WAL payload. An op is
// its kind byte, its key (uvarint length and bytes, or with opSharedKey
// set the shared-prefix form), and the kind's fields. A one-op batch
// never shares a key, so it spells the key out.
func encodeBatch(ops []Op) []byte {
	b := make([]byte, 0, 32*len(ops))
	b = binary.AppendUvarint(b, uint64(len(ops)))
	prev := ""
	for i := range ops {
		op := &ops[i]
		key := op.Key
		if shared := sharedPrefix(prev, key); shared >= minSharedKey {
			b = append(b, byte(op.Kind)|opSharedKey)
			b = binary.AppendUvarint(b, uint64(shared))
			key = key[shared:]
		} else {
			b = append(b, byte(op.Kind))
		}
		b = binary.AppendUvarint(b, uint64(len(key)))
		b = append(b, key...)
		prev = op.Key
		switch op.Kind {
		case OpPut:
			val := encodeValue(&op.Rec)
			b = binary.AppendUvarint(b, uint64(len(val)))
			b = append(b, val...)
		case OpDelta, OpMetaAdd, OpLoggedDelta, OpBalancedDelta:
			b = binary.AppendVarint(b, op.Delta)
			if op.Kind == OpLoggedDelta || op.Kind == OpBalancedDelta {
				b = binary.AppendUvarint(b, op.Seq)
			}
		case OpMetaPut:
			b = binary.AppendUvarint(b, uint64(len(op.Value)))
			b = append(b, op.Value...)
		case OpDelete, OpMetaDelete:
			// key only
		}
	}
	return b
}

// decodeBatch parses a WAL payload back into ops.
func decodeBatch(b []byte) ([]Op, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	b = b[n:]
	if count > uint64(len(b))+1 {
		return nil, ErrCorrupt
	}
	ops := make([]Op, 0, count)
	prev := ""
	for i := uint64(0); i < count; i++ {
		if len(b) < 1 {
			return nil, ErrCorrupt
		}
		flags := b[0]
		kind := OpKind(flags &^ opSharedKey)
		b = b[1:]
		var shared uint64
		if flags&opSharedKey != 0 {
			var n int
			shared, n = binary.Uvarint(b)
			// The first op has no previous key to share.
			if i == 0 || n <= 0 || shared > uint64(len(prev)) {
				return nil, ErrCorrupt
			}
			b = b[n:]
		}
		keyLen, n := binary.Uvarint(b)
		if n <= 0 || keyLen > uint64(len(b)-n) {
			return nil, ErrCorrupt
		}
		key := prev[:shared] + string(b[n:n+int(keyLen)])
		b = b[n+int(keyLen):]
		prev = key
		op := Op{Kind: kind, Key: key}
		switch kind {
		case OpPut:
			valLen, n := binary.Uvarint(b)
			if n <= 0 || valLen > uint64(len(b)-n) {
				return nil, ErrCorrupt
			}
			if err := decodeValue(key, b[n:n+int(valLen)], &op.Rec); err != nil {
				return nil, err
			}
			b = b[n+int(valLen):]
		case OpDelta, OpMetaAdd, OpLoggedDelta, OpBalancedDelta:
			delta, n := binary.Varint(b)
			if n <= 0 {
				return nil, ErrCorrupt
			}
			op.Delta = delta
			b = b[n:]
			if kind == OpLoggedDelta || kind == OpBalancedDelta {
				seq, n := binary.Uvarint(b)
				if n <= 0 {
					return nil, ErrCorrupt
				}
				op.Seq = seq
				b = b[n:]
			}
		case OpMetaPut:
			valLen, n := binary.Uvarint(b)
			if n <= 0 || valLen > uint64(len(b)-n) {
				return nil, ErrCorrupt
			}
			op.Value = append([]byte(nil), b[n:n+int(valLen)]...)
			b = b[n+int(valLen):]
		case OpDelete, OpMetaDelete:
			// nothing further
		default:
			return nil, fmt.Errorf("%w: op kind %d", ErrCorrupt, kind)
		}
		ops = append(ops, op)
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return ops, nil
}
