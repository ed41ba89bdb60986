package wire

import (
	"reflect"
	"testing"
	"testing/quick"
)

// roundTrip encodes msg inside an envelope and decodes it back.
func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	in := &Envelope{From: 3, To: 9, Seq: 77, IsReply: true, Msg: msg}
	b := EncodeEnvelope(in)
	out, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if out.From != in.From || out.To != in.To || out.Seq != in.Seq || out.IsReply != in.IsReply {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if out.Msg.Kind() != msg.Kind() {
		t.Fatalf("kind mismatch: %v vs %v", out.Msg.Kind(), msg.Kind())
	}
	return out.Msg
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []Message{
		&AVRequest{Key: "p17", Amount: -42},
		&AVReply{Key: "p17", Granted: 500, View: []AVInfo{{Site: 0, Key: "p17", Avail: 1000}, {Site: 2, Key: "p3", Avail: -7}}},
		&AVReply{Key: "", Granted: 0, View: nil},
		&DeltaSync{Origin: 1, FirstSeq: 1, Deltas: []Delta{{Seq: 1, Key: "a", Amount: -3}, {Seq: 2, Key: "b", Amount: 9}}},
		&DeltaSync{Origin: 0, Deltas: nil},
		&DeltaAck{Origin: 2, UpTo: 12345},
		&IUPrepare{TxnID: 99, Coord: 1, Key: "nonreg-4", Delta: -10},
		&IUVote{TxnID: 99, OK: false, Reason: "lock timeout"},
		&IUVote{TxnID: 99, OK: true},
		&IUDecision{TxnID: 99, Commit: true},
		&IUAck{TxnID: 99, OK: true},
		&IUAck{TxnID: 1 << 40, OK: false},
		&CentralUpdate{Key: "x", Delta: 123456789},
		&CentralReply{OK: true, NewValue: -1, Reason: ""},
		&CentralReply{OK: false, NewValue: 0, Reason: "would go negative"},
		&Read{Key: "k"},
		&ReadReply{OK: true, Value: 314},
		&AVRequest{Key: "p17", Amount: -42, Xfer: 1},
		&AVRequest{Key: "p17", Amount: 7, Xfer: 0xABCDEF0123},
		&Ping{},
		&Pong{},
		&AVSettle{Xfer: 42, Cancel: false},
		&AVSettle{Xfer: 0xABCDEF0123, Cancel: true},
		&AVSettleAck{Xfer: 42, Amount: 0},
		&AVSettleAck{Xfer: 1, Amount: 99},
		&DeltaSync{Origin: 3, FirstSeq: 10, Deltas: []Delta{{Seq: 12, Key: "a", Amount: -3}}, WindowTop: 15},
		&DeltaSync{Origin: 3, FirstSeq: 10, Deltas: nil, WindowTop: 11},
		&RouteUpdate{MapVersion: 1, Key: "p42", Delta: -9},
		&RouteUpdate{MapVersion: 7, Key: "", Delta: 0},
		&RouteReply{Status: RouteOK, Path: 1, Rounds: 2, Transferred: 30},
		&RouteReply{Status: RouteErr, ErrClass: RouteErrInsufficientAV, Reason: "need 9 held 4"},
		&RouteReply{Status: RouteNotReplica, Reason: "partition 3 not hosted"},
		&RouteReply{Status: RouteOK, Rounds: 1, Transferred: 3, AppliedSite: 5, AppliedLSN: 0x1_0000_0001},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		// Normalize nil vs empty slices for comparison.
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%T round trip: got %#v want %#v", m, got, m)
		}
	}
}

// TestAVRequestXferOptionalField pins the compatibility contract of the
// trailing Xfer field: a zero Xfer encodes byte-identically to the
// legacy format (so healthy-path traffic is unchanged), and an
// explicitly-encoded zero is rejected as non-canonical.
func TestAVRequestXferOptionalField(t *testing.T) {
	legacy := EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3,
		Msg: &AVRequest{Key: "p17", Amount: -42}})
	withZero := EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3,
		Msg: &AVRequest{Key: "p17", Amount: -42, Xfer: 0}})
	if !reflect.DeepEqual(legacy, withZero) {
		t.Fatalf("zero Xfer changed the encoding:\nlegacy %x\n  zero %x", legacy, withZero)
	}
	// Hand-append an explicit zero varint for Xfer: must be rejected.
	if _, err := DecodeEnvelope(append(append([]byte{}, legacy...), 0x00)); err == nil {
		t.Fatal("explicit zero Xfer accepted")
	}
}

// TestDeltaSyncWindowTopOptionalField pins the trailing-field contract
// for WindowTop: full-replication senders (WindowTop zero) encode
// byte-identically to the legacy format, and an explicitly-encoded zero
// is rejected as non-canonical.
func TestDeltaSyncWindowTopOptionalField(t *testing.T) {
	base := &DeltaSync{Origin: 1, FirstSeq: 4, Deltas: []Delta{{Seq: 5, Key: "k", Amount: 2}}}
	legacy := EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3, Msg: base})
	withZero := EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3,
		Msg: &DeltaSync{Origin: 1, FirstSeq: 4, Deltas: base.Deltas, WindowTop: 0}})
	if !reflect.DeepEqual(legacy, withZero) {
		t.Fatalf("zero WindowTop changed the encoding:\nlegacy %x\n  zero %x", legacy, withZero)
	}
	if _, err := DecodeEnvelope(append(append([]byte{}, legacy...), 0x00)); err == nil {
		t.Fatal("explicit zero WindowTop accepted")
	}
}

// TestEpochOptionalFields pins that IUVote and IUAck carry no optional
// epoch field: both encode exactly their fixed fields, and a frame
// with a trailing epoch stamp — zero or not — is rejected.
func TestEpochOptionalFields(t *testing.T) {
	vote := &IUVote{TxnID: 7, OK: true}
	ack := &IUAck{TxnID: 7, OK: true}
	fixed := map[Message][]byte{
		vote: appendString(appendBool(appendUvarint(nil, 7), true), ""),
		ack:  appendBool(appendUvarint(nil, 7), true),
	}
	for m, body := range fixed {
		if got := m.encode(nil); !reflect.DeepEqual(got, body) {
			t.Fatalf("%T: encoding %x, want only the fixed fields %x", m, got, body)
		}
		frame := EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3, Msg: m})
		for _, epoch := range []uint64{0, 9, 0xABCDEF} {
			if _, err := DecodeEnvelope(appendUvarint(append([]byte{}, frame...), epoch)); err == nil {
				t.Errorf("%T: trailing epoch %d accepted", m, epoch)
			}
		}
	}
}

// TestRouteReplyFixedFields pins that route.reply has no optional
// part: the applied site and LSN are always encoded, zero included, and
// a reply cut short anywhere or carrying a trailing byte is rejected.
func TestRouteReplyFixedFields(t *testing.T) {
	rep := &RouteReply{Status: RouteErr, ErrClass: RouteErrAborted, Reason: "no"}
	want := appendString([]byte{RouteErr, RouteErrAborted}, "no")
	want = append(want, 0)        // path
	want = appendUvarint(want, 0) // rounds
	want = appendVarint(want, 0)  // transferred
	want = appendUvarint(want, 0) // applied site
	want = appendUvarint(want, 0) // applied LSN
	if got := rep.encode(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("encoding %x, want %x", got, want)
	}
	full := EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 3, IsReply: true,
		Msg: &RouteReply{Status: RouteOK, Rounds: 2, Transferred: 9, AppliedSite: 4, AppliedLSN: 77}})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeEnvelope(full[:n]); err == nil {
			t.Fatalf("reply truncated to %d of %d bytes accepted", n, len(full))
		}
	}
	for _, b := range []byte{0x00, 0x01} {
		if _, err := DecodeEnvelope(append(append([]byte{}, full...), b)); err == nil {
			t.Fatalf("reply with trailing byte %#x accepted", b)
		}
	}
}

// normalize maps nil slices to empty so DeepEqual treats them alike.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *AVReply:
		if v.View == nil {
			c := *v
			c.View = []AVInfo{}
			return &c
		}
	case *DeltaSync:
		if v.Deltas == nil {
			c := *v
			c.Deltas = []Delta{}
			return &c
		}
	}
	return m
}

// encodeLegacyV1 hand-builds the version-less v1 envelope format old
// peers emitted, independent of the current encoder.
func encodeLegacyV1(e *Envelope) []byte {
	b := make([]byte, 0, 64)
	b = appendUvarint(b, uint64(e.From))
	b = appendUvarint(b, uint64(e.To))
	b = appendUvarint(b, e.Seq)
	b = appendBool(b, e.IsReply)
	b = append(b, byte(e.Msg.Kind()))
	return e.Msg.encode(b)
}

func TestTraceContextRoundTrip(t *testing.T) {
	in := &Envelope{From: 1, To: 2, Seq: 9, TraceID: 0xdeadbeef, SpanID: 0xcafe,
		Msg: &AVRequest{Key: "p1", Amount: -5}}
	raw := EncodeEnvelope(in)
	if raw[0] != verMarker {
		t.Fatalf("traced envelope not v2: first byte %#x", raw[0])
	}
	out, err := DecodeEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID || out.SpanID != in.SpanID {
		t.Fatalf("trace context lost: %+v", out)
	}
	if out.From != 1 || out.To != 2 || out.Seq != 9 {
		t.Fatalf("header lost: %+v", out)
	}
	if out.Msg.(*AVRequest).Key != "p1" {
		t.Fatalf("payload lost: %+v", out.Msg)
	}
}

func TestUntracedEnvelopeStaysV1(t *testing.T) {
	in := &Envelope{From: 3, To: 9, Seq: 77, Msg: &Read{Key: "k"}}
	raw := EncodeEnvelope(in)
	legacy := encodeLegacyV1(in)
	if string(raw) != string(legacy) {
		t.Fatalf("untraced envelope diverged from v1 bytes:\n got %x\nwant %x", raw, legacy)
	}
	out, err := DecodeEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != 0 || out.SpanID != 0 {
		t.Fatalf("phantom trace context: %+v", out)
	}
}

func TestLegacyV1EnvelopesStillDecode(t *testing.T) {
	msgs := []Message{
		&AVRequest{Key: "p17", Amount: -42},
		&DeltaSync{Origin: 1, FirstSeq: 1, Deltas: []Delta{{Seq: 1, Key: "a", Amount: -3}}},
		&IUPrepare{TxnID: 99, Coord: 1, Key: "nonreg-4", Delta: -10},
		&SyncPull{},
	}
	for _, m := range msgs {
		in := &Envelope{From: 2, To: 0, Seq: 1234, Msg: m}
		out, err := DecodeEnvelope(encodeLegacyV1(in))
		if err != nil {
			t.Fatalf("legacy %T: %v", m, err)
		}
		if out.From != in.From || out.Seq != in.Seq || out.Msg.Kind() != m.Kind() {
			t.Fatalf("legacy %T mangled: %+v", m, out)
		}
	}
}

func TestMarkerCollidingFromRoundTrips(t *testing.T) {
	// From values whose v1 uvarint would begin with the version marker
	// must be encoded as v2 and still round-trip.
	for _, from := range []SiteID{245, 245 + 128, 245 + 128*1000} {
		in := &Envelope{From: from, To: 1, Seq: 5, Msg: &Read{Key: "k"}}
		raw := EncodeEnvelope(in)
		if raw[0] != verMarker {
			t.Fatalf("from=%d: expected v2 encoding, first byte %#x", from, raw[0])
		}
		out, err := DecodeEnvelope(raw)
		if err != nil {
			t.Fatalf("from=%d: %v", from, err)
		}
		if out.From != from {
			t.Fatalf("from=%d round-tripped to %d", from, out.From)
		}
	}
}

func TestDecodeRejectsFutureVersion(t *testing.T) {
	b := []byte{verMarker}
	b = appendUvarint(b, 99) // claimed codec version 99
	b = append(b, 0)
	if _, err := DecodeEnvelope(b); err == nil {
		t.Fatal("future version accepted")
	}
	// Unknown flag bits must also fail loudly rather than misparse.
	b = []byte{verMarker}
	b = appendUvarint(b, codecVersion)
	b = append(b, 0x80)
	if _, err := DecodeEnvelope(b); err == nil {
		t.Fatal("unknown flags accepted")
	}
}

func TestQuickTraceContextRoundTrip(t *testing.T) {
	f := func(traceID, spanID uint64, from uint32, key string) bool {
		in := &Envelope{From: SiteID(from), To: 7, Seq: 3, TraceID: traceID, SpanID: spanID,
			Msg: &AVRequest{Key: key, Amount: 1}}
		out, err := DecodeEnvelope(EncodeEnvelope(in))
		if err != nil {
			return false
		}
		return out.TraceID == traceID && out.From == in.From &&
			(traceID == 0 || out.SpanID == spanID)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	if KindAVRequest.String() != "av.request" {
		t.Fatalf("got %q", KindAVRequest.String())
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatalf("got %q", Kind(200).String())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x01},                       // truncated header
		{0, 0, 0, 0, 0xFF},           // unknown kind 255
		{0, 0, 0, 2},                 // bad bool then missing kind
		{0, 0, 0, 0, byte(KindRead)}, // read with no key
	}
	for i, b := range cases {
		if _, err := DecodeEnvelope(b); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b := EncodeEnvelope(&Envelope{Msg: &Read{Key: "k"}})
	b = append(b, 0xAB)
	if _, err := DecodeEnvelope(b); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsTruncations(t *testing.T) {
	msg := &AVReply{
		Key: "product-123", Granted: 999, View: []AVInfo{{Site: 5, Key: "product-123", Avail: 77}},
	}
	for _, traceID := range []uint64{0, 0xfeedface} { // v1 and v2 formats
		full := EncodeEnvelope(&Envelope{From: 1, To: 2, Seq: 1 << 40, TraceID: traceID, SpanID: 7, Msg: msg})
		for n := 0; n < len(full); n++ {
			if _, err := DecodeEnvelope(full[:n]); err == nil {
				t.Fatalf("trace=%#x: truncation to %d bytes accepted", traceID, n)
			}
		}
	}
}

func TestDecodeRejectsHugeCountPrefix(t *testing.T) {
	// Hand-build a DeltaSync claiming 2^40 entries with no data behind it.
	b := []byte{0, 0, 0, 0, byte(KindDeltaSync)}
	b = appendUvarint(b, 0)     // origin
	b = appendUvarint(b, 0)     // first-seq
	b = appendUvarint(b, 1<<40) // claimed count
	if _, err := DecodeEnvelope(b); err == nil {
		t.Fatal("absurd count prefix accepted")
	}
}

func TestQuickAVRequestRoundTrip(t *testing.T) {
	f := func(key string, amount int64, from, to uint32, seq uint64, isReply bool) bool {
		in := &Envelope{From: SiteID(from), To: SiteID(to), Seq: seq, IsReply: isReply,
			Msg: &AVRequest{Key: key, Amount: amount}}
		out, err := DecodeEnvelope(EncodeEnvelope(in))
		if err != nil {
			return false
		}
		m := out.Msg.(*AVRequest)
		return out.From == in.From && out.To == in.To && out.Seq == seq &&
			out.IsReply == isReply && m.Key == key && m.Amount == amount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeltaSyncRoundTrip(t *testing.T) {
	f := func(origin uint16, seqs []uint16, keys []string, amounts []int64) bool {
		n := len(seqs)
		if len(keys) < n {
			n = len(keys)
		}
		if len(amounts) < n {
			n = len(amounts)
		}
		in := &DeltaSync{Origin: SiteID(origin), FirstSeq: 1}
		for i := 0; i < n; i++ {
			in.Deltas = append(in.Deltas, Delta{Seq: uint64(seqs[i]), Key: keys[i], Amount: amounts[i]})
		}
		out, err := DecodeEnvelope(EncodeEnvelope(&Envelope{Msg: in}))
		if err != nil {
			return false
		}
		m := out.Msg.(*DeltaSync)
		if m.Origin != in.Origin || len(m.Deltas) != len(in.Deltas) {
			return false
		}
		for i := range in.Deltas {
			if m.Deltas[i] != in.Deltas[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = DecodeEnvelope(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeAVRequest(b *testing.B) {
	e := &Envelope{From: 1, To: 0, Seq: 42, Msg: &AVRequest{Key: "product-0042", Amount: 100}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeEnvelope(e)
	}
}

func BenchmarkDecodeAVRequest(b *testing.B) {
	raw := EncodeEnvelope(&Envelope{From: 1, To: 0, Seq: 42, Msg: &AVRequest{Key: "product-0042", Amount: 100}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDeltaSync64(b *testing.B) {
	m := &DeltaSync{Origin: 1, FirstSeq: 1}
	for i := 0; i < 64; i++ {
		m.Deltas = append(m.Deltas, Delta{Seq: uint64(i + 1), Key: "product-0001", Amount: int64(-i)})
	}
	e := &Envelope{From: 1, To: 2, Msg: m}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeEnvelope(e)
	}
}
