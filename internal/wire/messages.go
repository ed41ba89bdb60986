package wire

import "fmt"

// SiteID identifies a site (a participant database node). Site 0 is by
// convention the base site (the maker in the paper's SCM model, hosting
// the primary copy used by Immediate Update).
type SiteID uint32

// Kind tags a protocol message type on the wire.
type Kind uint8

// Message kinds. The numeric values are part of the wire format; only
// append, never renumber.
const (
	KindInvalid Kind = iota

	// Allowable-Volume management (Delay Update with AV transfer, Fig. 4).
	KindAVRequest // ask a peer for AV of one key
	KindAVReply   // grant (possibly 0 = refusal) plus gossiped AV view

	// Lazy propagation of committed Delay-Update deltas.
	KindDeltaSync // batch of (origin, seq, key, delta) entries
	KindDeltaAck  // cumulative ack of an origin's delta sequence

	// Immediate Update: primary-copy two-phase commit (Fig. 5).
	KindIUPrepare  // phase 1: lock + tentatively apply
	KindIUVote     // participant's ready / refuse vote
	KindIUDecision // phase 2: commit or abort
	KindIUAck      // participant acknowledgement of the decision

	// Retired (9, 10): central.update and central.reply of a separate
	// centralized system, now the shipped stack with every key's only
	// replica at the base (route.update/route.reply). The slots stay
	// reserved so later kinds keep their numbers; decoding either fails
	// as an unknown kind.
	_
	_

	// Client/remote reads of the local replica.
	KindRead
	KindReadReply

	// Pull-based convergence: ask a peer to hand over the deltas it has
	// not yet pushed to us (reply is a DeltaSync).
	KindSyncPull

	// Failure detection: lightweight liveness probes between peers.
	KindPing
	KindPong

	// Retired (16, 17): av.settle and av.settle.ack of the escrowed AV
	// transfer protocol. The slots stay reserved so later kinds keep
	// their numbers; decoding either fails as an unknown kind.
	_
	_

	// Partitioned routing: an update forwarded to a replica of the key's
	// partition, and its outcome.
	KindRouteUpdate
	KindRouteReply
)

var kindNames = map[Kind]string{
	KindAVRequest:   "av.request",
	KindAVReply:     "av.reply",
	KindDeltaSync:   "delta.sync",
	KindDeltaAck:    "delta.ack",
	KindIUPrepare:   "iu.prepare",
	KindIUVote:      "iu.vote",
	KindIUDecision:  "iu.decision",
	KindIUAck:       "iu.ack",
	KindRead:        "read",
	KindReadReply:   "read.reply",
	KindSyncPull:    "sync.pull",
	KindPing:        "ping",
	KindPong:        "pong",
	KindRouteUpdate: "route.update",
	KindRouteReply:  "route.reply",
}

// String returns the dotted metric name for the kind ("av.request", ...).
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is any protocol payload that can ride in an Envelope.
type Message interface {
	// Kind returns the wire tag for the concrete type.
	Kind() Kind
	// encode appends the payload (excluding the kind tag) to b.
	encode(b []byte) []byte
	// decode parses the payload from r.
	decode(r *reader) error
}

// AVInfo is one gossiped observation: "site holds avail AV for key".
// Peers piggyback their view on AV replies so selectors can pick targets
// from (possibly stale) information, exactly as the paper describes.
type AVInfo struct {
	Site  SiteID
	Key   string
	Avail int64
}

// AVRequest asks the receiver to transfer AV for Key. Amount is the
// shortage the requester still needs (the SODA'99 "deciding" output).
type AVRequest struct {
	Key    string
	Amount int64
}

// Kind implements Message.
func (*AVRequest) Kind() Kind { return KindAVRequest }

func (m *AVRequest) encode(b []byte) []byte {
	b = appendString(b, m.Key)
	return appendVarint(b, m.Amount)
}

func (m *AVRequest) decode(r *reader) (err error) {
	if m.Key, err = r.str(); err != nil {
		return err
	}
	m.Amount, err = r.varint()
	return err
}

// AVReply grants Granted units of AV for Key (0 means the holder refused
// or had nothing) and piggybacks the granter's view of AV holdings.
type AVReply struct {
	Key     string
	Granted int64
	View    []AVInfo
}

// Kind implements Message.
func (*AVReply) Kind() Kind { return KindAVReply }

func (m *AVReply) encode(b []byte) []byte {
	b = appendString(b, m.Key)
	b = appendVarint(b, m.Granted)
	b = appendUvarint(b, uint64(len(m.View)))
	for _, v := range m.View {
		b = appendUvarint(b, uint64(v.Site))
		b = appendString(b, v.Key)
		b = appendVarint(b, v.Avail)
	}
	return b
}

func (m *AVReply) decode(r *reader) (err error) {
	if m.Key, err = r.str(); err != nil {
		return err
	}
	if m.Granted, err = r.varint(); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(r.remaining()) { // each entry takes >= 3 bytes; cheap bound
		return ErrTooLong
	}
	m.View = make([]AVInfo, n)
	for i := range m.View {
		site, err := r.uvarint()
		if err != nil {
			return err
		}
		m.View[i].Site = SiteID(site)
		if m.View[i].Key, err = r.str(); err != nil {
			return err
		}
		if m.View[i].Avail, err = r.varint(); err != nil {
			return err
		}
	}
	return nil
}

// Delta is one committed Delay-Update delta in an origin site's log.
type Delta struct {
	Seq    uint64 // position in the origin's delta log, starting at 1
	Key    string
	Amount int64
}

// DeltaSync carries a batch of deltas from Origin's log for lazy replica
// convergence.
//
// Every batch is a coalesced window: the sender merged same-key deltas
// covering origin sequences [FirstSeq, max entry Seq] (FirstSeq >= 1),
// so individual sequences are no longer recoverable and the receiver
// applies the whole batch if and only if FirstSeq is exactly one past
// its applied watermark, acknowledging its current watermark otherwise
// so the sender realigns on the next flush. A batch with no entries and
// no WindowTop (a caught-up pull reply) covers nothing.
//
// WindowTop, when nonzero, is the last origin sequence the coalesced
// window covers. A partially replicating sender (partitioned clusters)
// filters out entries for partitions the receiver does not host, so
// the window may end past the highest surviving entry — or contain no
// entries at all — and the receiver must still advance its watermark to
// WindowTop or the sender would retransmit the filtered window forever.
// Zero (encoded by omission, byte-identical to the legacy format) means
// the window ends at the highest entry Seq, the full-replication rule.
type DeltaSync struct {
	Origin    SiteID
	FirstSeq  uint64
	Deltas    []Delta
	WindowTop uint64
}

// Kind implements Message.
func (*DeltaSync) Kind() Kind { return KindDeltaSync }

func (m *DeltaSync) encode(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Origin))
	b = appendUvarint(b, m.FirstSeq)
	b = appendUvarint(b, uint64(len(m.Deltas)))
	for _, d := range m.Deltas {
		b = appendUvarint(b, d.Seq)
		b = appendString(b, d.Key)
		b = appendVarint(b, d.Amount)
	}
	return appendOptUvarint(b, m.WindowTop)
}

func (m *DeltaSync) decode(r *reader) error {
	origin, err := r.uvarint()
	if err != nil {
		return err
	}
	m.Origin = SiteID(origin)
	if m.FirstSeq, err = r.uvarint(); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(r.remaining()) {
		return ErrTooLong
	}
	m.Deltas = make([]Delta, n)
	for i := range m.Deltas {
		if m.Deltas[i].Seq, err = r.uvarint(); err != nil {
			return err
		}
		if m.Deltas[i].Key, err = r.str(); err != nil {
			return err
		}
		if m.Deltas[i].Amount, err = r.varint(); err != nil {
			return err
		}
	}
	m.WindowTop, err = r.optUvarint()
	return err
}

// DeltaAck acknowledges that the sender has applied Origin's deltas up to
// and including UpTo.
type DeltaAck struct {
	Origin SiteID
	UpTo   uint64
}

// Kind implements Message.
func (*DeltaAck) Kind() Kind { return KindDeltaAck }

func (m *DeltaAck) encode(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Origin))
	return appendUvarint(b, m.UpTo)
}

func (m *DeltaAck) decode(r *reader) error {
	origin, err := r.uvarint()
	if err != nil {
		return err
	}
	m.Origin = SiteID(origin)
	m.UpTo, err = r.uvarint()
	return err
}

// IUPrepare is phase 1 of an Immediate Update: the coordinator asks every
// site to lock Key and tentatively apply Delta.
type IUPrepare struct {
	TxnID uint64
	Coord SiteID
	Key   string
	Delta int64
}

// Kind implements Message.
func (*IUPrepare) Kind() Kind { return KindIUPrepare }

func (m *IUPrepare) encode(b []byte) []byte {
	b = appendUvarint(b, m.TxnID)
	b = appendUvarint(b, uint64(m.Coord))
	b = appendString(b, m.Key)
	return appendVarint(b, m.Delta)
}

func (m *IUPrepare) decode(r *reader) (err error) {
	if m.TxnID, err = r.uvarint(); err != nil {
		return err
	}
	coord, err := r.uvarint()
	if err != nil {
		return err
	}
	m.Coord = SiteID(coord)
	if m.Key, err = r.str(); err != nil {
		return err
	}
	m.Delta, err = r.varint()
	return err
}

// IUVote is a participant's phase-1 vote.
type IUVote struct {
	TxnID  uint64
	OK     bool
	Reason string // populated when OK is false
}

// Kind implements Message.
func (*IUVote) Kind() Kind { return KindIUVote }

func (m *IUVote) encode(b []byte) []byte {
	b = appendUvarint(b, m.TxnID)
	b = appendBool(b, m.OK)
	return appendString(b, m.Reason)
}

func (m *IUVote) decode(r *reader) (err error) {
	if m.TxnID, err = r.uvarint(); err != nil {
		return err
	}
	if m.OK, err = r.boolean(); err != nil {
		return err
	}
	m.Reason, err = r.str()
	return err
}

// IUDecision is phase 2: commit (true) or abort (false).
type IUDecision struct {
	TxnID  uint64
	Commit bool
}

// Kind implements Message.
func (*IUDecision) Kind() Kind { return KindIUDecision }

func (m *IUDecision) encode(b []byte) []byte {
	b = appendUvarint(b, m.TxnID)
	return appendBool(b, m.Commit)
}

func (m *IUDecision) decode(r *reader) (err error) {
	if m.TxnID, err = r.uvarint(); err != nil {
		return err
	}
	m.Commit, err = r.boolean()
	return err
}

// IUAck acknowledges a decision. The paper has the requesting accelerator
// judge completion from the base site's message; the coordinator therefore
// waits for at least the base site's ack.
type IUAck struct {
	TxnID uint64
	OK    bool
}

// Kind implements Message.
func (*IUAck) Kind() Kind { return KindIUAck }

func (m *IUAck) encode(b []byte) []byte {
	b = appendUvarint(b, m.TxnID)
	return appendBool(b, m.OK)
}

func (m *IUAck) decode(r *reader) (err error) {
	if m.TxnID, err = r.uvarint(); err != nil {
		return err
	}
	m.OK, err = r.boolean()
	return err
}

// Read asks a site for its current local value of Key.
type Read struct {
	Key string
}

// Kind implements Message.
func (*Read) Kind() Kind { return KindRead }

func (m *Read) encode(b []byte) []byte { return appendString(b, m.Key) }

func (m *Read) decode(r *reader) (err error) {
	m.Key, err = r.str()
	return err
}

// ReadReply returns a site's local value of a key.
type ReadReply struct {
	OK    bool
	Value int64
}

// Kind implements Message.
func (*ReadReply) Kind() Kind { return KindReadReply }

func (m *ReadReply) encode(b []byte) []byte {
	b = appendBool(b, m.OK)
	return appendVarint(b, m.Value)
}

func (m *ReadReply) decode(r *reader) (err error) {
	if m.OK, err = r.boolean(); err != nil {
		return err
	}
	m.Value, err = r.varint()
	return err
}

// SyncPull asks the receiver to reply with the deltas it has not yet
// delivered to the requester (a DeltaSync). Used by pull-based
// convergence and fresh reads.
type SyncPull struct{}

// Kind implements Message.
func (*SyncPull) Kind() Kind { return KindSyncPull }

func (m *SyncPull) encode(b []byte) []byte { return b }

func (m *SyncPull) decode(r *reader) error { return nil }

// Ping is a liveness probe; the receiver answers with a Pong. The
// failure detector feeds round-trip outcomes into per-peer suspicion.
type Ping struct{}

// Kind implements Message.
func (*Ping) Kind() Kind { return KindPing }

func (m *Ping) encode(b []byte) []byte { return b }

func (m *Ping) decode(r *reader) error { return nil }

// Pong answers a Ping.
type Pong struct{}

// Kind implements Message.
func (*Pong) Kind() Kind { return KindPong }

func (m *Pong) encode(b []byte) []byte { return b }

func (m *Pong) decode(r *reader) error { return nil }

// RouteUpdate forwards an update to a site hosting the key's partition
// (normally the owner). MapVersion is the sender's partition-map
// version; maps are static, so it is always 1 and receivers ignore it.
type RouteUpdate struct {
	MapVersion uint64
	Key        string
	Delta      int64
}

// Kind implements Message.
func (*RouteUpdate) Kind() Kind { return KindRouteUpdate }

func (m *RouteUpdate) encode(b []byte) []byte {
	b = appendUvarint(b, m.MapVersion)
	b = appendString(b, m.Key)
	return appendVarint(b, m.Delta)
}

func (m *RouteUpdate) decode(r *reader) (err error) {
	if m.MapVersion, err = r.uvarint(); err != nil {
		return err
	}
	if m.Key, err = r.str(); err != nil {
		return err
	}
	m.Delta, err = r.varint()
	return err
}

// RouteReply statuses.
const (
	RouteOK         uint8 = iota // update applied at the serving replica
	RouteNotReplica              // receiver does not host the key's partition
	RouteErr                     // receiver hosts it but the update failed
)

// RouteReply error classes: a routed update's failure collapsed to the
// sender-side sentinel it must map back onto, so the origin classifies
// forwarded outcomes exactly as local ones.
const (
	RouteErrNone           uint8 = iota
	RouteErrInsufficientAV       // core.ErrInsufficientAV
	RouteErrAborted              // twopc.ErrAborted
	RouteErrUnknown              // twopc.ErrCompletionUnknown
	RouteErrOther
)

// RouteReply reports a RouteUpdate's outcome. On RouteOK, Path, Rounds
// and Transferred mirror the serving replica's core.Result, and
// AppliedSite/AppliedLSN carry its read-your-writes position: the site
// whose plane applied the commit and the LSN it reached there. The
// origin mints its RYW token from this pair — the token must gate the
// *applying* site's read plane, not the origin's, whose local LSN never
// saw the commit. On RouteErr, ErrClass and Reason carry the failure;
// RouteNotReplica means the receiver does not host the key and applied
// nothing.
type RouteReply struct {
	Status      uint8
	ErrClass    uint8
	Reason      string
	Path        uint8
	Rounds      uint32
	Transferred int64
	AppliedSite SiteID
	AppliedLSN  uint64
}

// Kind implements Message.
func (*RouteReply) Kind() Kind { return KindRouteReply }

func (m *RouteReply) encode(b []byte) []byte {
	b = append(b, m.Status, m.ErrClass)
	b = appendString(b, m.Reason)
	b = append(b, m.Path)
	b = appendUvarint(b, uint64(m.Rounds))
	b = appendVarint(b, m.Transferred)
	b = appendUvarint(b, uint64(m.AppliedSite))
	return appendUvarint(b, m.AppliedLSN)
}

func (m *RouteReply) decode(r *reader) (err error) {
	if m.Status, err = r.byte(); err != nil {
		return err
	}
	if m.ErrClass, err = r.byte(); err != nil {
		return err
	}
	if m.Reason, err = r.str(); err != nil {
		return err
	}
	if m.Path, err = r.byte(); err != nil {
		return err
	}
	rounds, err := r.uvarint()
	if err != nil {
		return err
	}
	m.Rounds = uint32(rounds)
	if m.Transferred, err = r.varint(); err != nil {
		return err
	}
	site, err := r.uvarint()
	if err != nil {
		return err
	}
	m.AppliedSite = SiteID(site)
	m.AppliedLSN, err = r.uvarint()
	return err
}

// newMessage returns a zero value of the concrete type for kind.
func newMessage(k Kind) (Message, error) {
	switch k {
	case KindAVRequest:
		return &AVRequest{}, nil
	case KindAVReply:
		return &AVReply{}, nil
	case KindDeltaSync:
		return &DeltaSync{}, nil
	case KindDeltaAck:
		return &DeltaAck{}, nil
	case KindIUPrepare:
		return &IUPrepare{}, nil
	case KindIUVote:
		return &IUVote{}, nil
	case KindIUDecision:
		return &IUDecision{}, nil
	case KindIUAck:
		return &IUAck{}, nil
	case KindRead:
		return &Read{}, nil
	case KindReadReply:
		return &ReadReply{}, nil
	case KindSyncPull:
		return &SyncPull{}, nil
	case KindPing:
		return &Ping{}, nil
	case KindPong:
		return &Pong{}, nil
	case KindRouteUpdate:
		return &RouteUpdate{}, nil
	case KindRouteReply:
		return &RouteReply{}, nil
	default:
		return nil, ErrBadKind
	}
}
