package wire

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzSeeds returns one valid envelope per message kind (plus a traced
// v2 variant), so the fuzzer starts from every branch of the decoder.
func fuzzSeeds() []*Envelope {
	msgs := []Message{
		&AVRequest{Key: "product-0001", Amount: 25},
		&AVReply{Key: "product-0001", Granted: 10, View: []AVInfo{{Site: 2, Key: "product-0001", Avail: 40}}},
		&DeltaSync{Origin: 1, FirstSeq: 1, Deltas: []Delta{{Seq: 1, Key: "a", Amount: -3}, {Seq: 2, Key: "b", Amount: 4}}},
		&DeltaSync{Origin: 1},
		&DeltaSync{Origin: 1, FirstSeq: 7, Deltas: []Delta{{Seq: 9, Key: "a", Amount: -3}}},
		&DeltaAck{Origin: 3, UpTo: 99},
		&IUPrepare{TxnID: 12, Coord: 0, Key: "product-0002", Delta: -5},
		&IUVote{TxnID: 12, OK: false, Reason: "lock timeout"},
		&IUVote{TxnID: 12, OK: true},
		&IUDecision{TxnID: 12, Commit: true},
		&IUAck{TxnID: 12, OK: true},
		&Read{Key: "product-0004"},
		&ReadReply{OK: true, Value: 1234},
		&SyncPull{},
		&Ping{},
		&Pong{},
		&DeltaSync{Origin: 1, FirstSeq: 7, Deltas: []Delta{{Seq: 9, Key: "a", Amount: -3}}, WindowTop: 11},
		&RouteUpdate{MapVersion: 1, Key: "product-0005", Delta: -4},
		&RouteReply{Status: RouteNotReplica, Reason: "not hosted"},
		&RouteReply{Status: RouteErr, ErrClass: RouteErrInsufficientAV, Reason: "need 9 held 4"},
		&RouteReply{Status: RouteOK, Rounds: 2, Transferred: 9, AppliedSite: 4, AppliedLSN: 77},
		&RouteReply{Status: RouteOK, Rounds: 1, Transferred: 3, AppliedSite: 5, AppliedLSN: 0x1_0000_0001},
	}
	envs := make([]*Envelope, 0, len(msgs)+1)
	for i, m := range msgs {
		envs = append(envs, &Envelope{From: SiteID(i % 4), To: SiteID((i + 1) % 4), Seq: uint64(i), Msg: m})
	}
	// A traced envelope exercises the v2 framing.
	envs = append(envs, &Envelope{
		From: 1, To: 2, Seq: 5, IsReply: true,
		TraceID: 0xdeadbeef, SpanID: 0x42,
		Msg: &ReadReply{OK: true, Value: -1},
	})
	return envs
}

// FuzzDecodeEnvelope asserts the decoder never panics on arbitrary
// bytes, rejects trailing garbage, and that whatever it accepts
// round-trips stably: decode -> encode -> decode -> encode must
// reproduce the same bytes (the encoding is canonical).
func FuzzDecodeEnvelope(f *testing.F) {
	for _, e := range fuzzSeeds() {
		f.Add(EncodeEnvelope(e))
	}
	// A central.update and a central.reply as they were framed (retired
	// kinds 9 and 10): both must decode to an error.
	for _, frame := range [][]byte{
		appendVarint(appendString([]byte{1, 0, 11, 0, 9}, "product-0003"), 7),
		appendString(appendVarint(appendBool([]byte{0, 1, 11, 1, 10}, false), 0), "rejected"),
	} {
		if _, err := DecodeEnvelope(frame); !errors.Is(err, ErrBadKind) {
			f.Fatalf("retired kind %d: err = %v, want ErrBadKind", frame[4], err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	// A vote, an ack and a route reply with a stray trailing byte (the
	// shape an epoch-stamped vote or ack and a map-carrying reply had),
	// and a route reply cut before its applied LSN: all must decode to an
	// error.
	for _, m := range []Message{&IUVote{TxnID: 12, OK: true}, &IUAck{TxnID: 12, OK: true},
		&RouteReply{Status: RouteOK, AppliedSite: 4, AppliedLSN: 77}} {
		f.Add(append(EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3, Msg: m}), 0x09))
	}
	routed := EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3, Msg: &RouteReply{Status: RouteOK, AppliedSite: 4, AppliedLSN: 77}})
	f.Add(routed[:len(routed)-1])
	// An AV request and a delta window with their optional trailing
	// uvarint written as an explicit zero: non-canonical, so rejected.
	for _, m := range []Message{&AVRequest{Key: "k", Amount: 5},
		&DeltaSync{Origin: 1, FirstSeq: 4, Deltas: []Delta{{Seq: 4, Key: "k", Amount: -1}}}} {
		f.Add(append(EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3, Msg: m}), 0x00))
	}
	// The escrowed-transfer shapes: an av.settle and an av.settle.ack
	// (retired kinds 16 and 17) and an av.request carrying a transfer
	// id. All must decode to an error.
	for _, k := range []byte{16, 17} {
		f.Add([]byte{1, 2, 3, 0, k, 42, 1})
	}
	f.Add(appendUvarint(EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3, Msg: &AVRequest{Key: "k", Amount: 5}}), 0x700000001))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		// Any accepted input followed by junk must be rejected: the
		// decoder owns the whole frame.
		if _, err := DecodeEnvelope(append(append([]byte{}, data...), 0x00)); err == nil {
			t.Fatalf("accepted input with a trailing byte")
		}
		enc1 := EncodeEnvelope(e)
		e2, err := DecodeEnvelope(enc1)
		if err != nil {
			t.Fatalf("re-decode of re-encoded envelope failed: %v", err)
		}
		enc2 := EncodeEnvelope(e2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not stable:\n first %x\nsecond %x", enc1, enc2)
		}
	})
}
