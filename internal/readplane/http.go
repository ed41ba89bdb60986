package readplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// HTTPHandler returns the plane's read API, rooted at /read/:
//
//	GET /read/stock[?key=K][&token=S:L&wait_ms=N] — stock view
//	GET /read/global[?key=K]                      — cross-site position view
//	GET /read/hot[?k=N]                           — top-K hot keys
//	GET /read/watch?model=stock|global|hot        — streaming (one JSON
//	    [&interval_ms=N]                            line per tick)
//
// Every answer is read from the engine when the request is served and
// carries its stamp as applied_lsn (see the package doc). A token query
// demands read-your-writes: the request blocks (up to wait_ms, default
// 1000, at most maxWaitMS) until the engine has reached the token's
// LSN, answering 504 when the deadline expires first. Mount the handler
// on a mux that routes the /read/ subtree here (paths are absolute).
func (p *Plane) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /read/stock", p.handleStock)
	mux.HandleFunc("GET /read/global", p.handleGlobal)
	mux.HandleFunc("GET /read/hot", p.handleHot)
	mux.HandleFunc("GET /read/watch", p.handleWatch)
	return mux
}

// freshness is the staleness block every response carries.
type freshness struct {
	Site       uint32 `json:"site"`
	AppliedLSN uint64 `json:"applied_lsn"`
	EngineLSN  uint64 `json:"engine_lsn"`
	LagLSNs    int64  `json:"lag_lsns"`
	AsOf       string `json:"as_of"`
	AgeMS      int64  `json:"age_ms"`
}

func (p *Plane) freshnessOf(appliedLSN uint64, asOf time.Time) freshness {
	now := p.cfg.Now()
	engineLSN := p.cfg.Engine.LastLSN()
	return freshness{
		Site:       uint32(p.cfg.Site),
		AppliedLSN: appliedLSN,
		EngineLSN:  engineLSN,
		LagLSNs:    int64(engineLSN) - int64(appliedLSN),
		AsOf:       asOf.UTC().Format(time.RFC3339Nano),
		AgeMS:      now.Sub(asOf).Milliseconds(),
	}
}

// maxWaitMS caps a request's wait_ms: a read-your-writes wait parks
// the handler's goroutine for as long as the client asks.
const maxWaitMS = 10_000

// awaitToken applies a request's RYW barrier, answering the error
// itself. It reports whether the handler should continue.
func (p *Plane) awaitToken(w http.ResponseWriter, r *http.Request) bool {
	tokStr := r.URL.Query().Get("token")
	if tokStr == "" {
		return true
	}
	tok, err := ParseToken(tokStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	waitMS := 1000
	if q := r.URL.Query().Get("wait_ms"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 || v > maxWaitMS {
			http.Error(w, fmt.Sprintf("bad wait_ms parameter (0 to %d)", maxWaitMS), http.StatusBadRequest)
			return false
		}
		waitMS = v
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(waitMS)*time.Millisecond)
	defer cancel()
	switch err := p.WaitFor(ctx, tok); {
	case err == nil:
		return true
	case errors.Is(err, ErrWrongSite):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "read-your-writes deadline expired before the engine reached the token", http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort HTTP write
}

type stockResponse struct {
	freshness
	Key     string           `json:"key,omitempty"`
	Amount  *int64           `json:"amount,omitempty"`
	Found   *bool            `json:"found,omitempty"`
	Amounts map[string]int64 `json:"amounts,omitempty"`
}

// stockBody answers one key from the engine directly, or the whole
// catalog when key is empty.
func (p *Plane) stockBody(key string) (any, error) {
	if key == "" {
		s, err := p.Stock()
		if err != nil {
			return nil, err
		}
		return stockResponse{freshness: p.freshnessOf(s.AppliedLSN, s.AsOf), Amounts: s.Amounts}, nil
	}
	p.readsStock.Add(1)
	amount, found, stamp, err := p.cfg.Engine.StampedAmount(key)
	if err != nil {
		return nil, err
	}
	return stockResponse{freshness: p.freshnessOf(stamp, p.cfg.Now()), Key: key, Amount: &amount, Found: &found}, nil
}

func (p *Plane) handleStock(w http.ResponseWriter, r *http.Request) {
	if !p.awaitToken(w, r) {
		return
	}
	body, err := p.stockBody(r.URL.Query().Get("key"))
	writeJSON(w, body, err)
}

type globalRow struct {
	Key     string           `json:"key"`
	Amount  int64            `json:"amount"`
	AVAvail int64            `json:"av_avail"`
	AVHeld  int64            `json:"av_held"`
	PeerAV  map[uint32]int64 `json:"peer_av,omitempty"`
	KnownAV int64            `json:"known_av"`
}

type globalResponse struct {
	freshness
	Keys []globalRow `json:"keys"`
}

func globalRowOf(k *GlobalKey) globalRow {
	row := globalRow{
		Key: k.Key, Amount: k.Amount,
		AVAvail: k.AVAvail, AVHeld: k.AVHeld, KnownAV: k.KnownAV,
	}
	if len(k.PeerAV) > 0 {
		row.PeerAV = make(map[uint32]int64, len(k.PeerAV))
		for site, n := range k.PeerAV {
			row.PeerAV[uint32(site)] = n
		}
	}
	return row
}

// globalBody answers the position view, one row when key is set.
func (p *Plane) globalBody(key string) (any, error) {
	g, err := p.Global()
	if err != nil {
		return nil, err
	}
	resp := globalResponse{freshness: p.freshnessOf(g.AppliedLSN, g.AsOf), Keys: []globalRow{}}
	for i := range g.Keys {
		if key == "" || g.Keys[i].Key == key {
			resp.Keys = append(resp.Keys, globalRowOf(&g.Keys[i]))
		}
	}
	return resp, nil
}

func (p *Plane) handleGlobal(w http.ResponseWriter, r *http.Request) {
	if !p.awaitToken(w, r) {
		return
	}
	body, err := p.globalBody(r.URL.Query().Get("key"))
	writeJSON(w, body, err)
}

type hotRow struct {
	Key     string `json:"key"`
	Updates uint64 `json:"updates"`
	Volume  int64  `json:"volume"`
}

type hotResponse struct {
	freshness
	Top []hotRow `json:"top"`
}

// defaultTopK is the hot view's size when a request names no k.
const defaultTopK = 10

func (p *Plane) hotBody(k int) hotResponse {
	h := p.Hot(k)
	resp := hotResponse{freshness: p.freshnessOf(h.AppliedLSN, h.AsOf), Top: make([]hotRow, 0, len(h.Top))}
	for _, hk := range h.Top {
		resp.Top = append(resp.Top, hotRow{Key: hk.Key, Updates: hk.Updates, Volume: hk.Volume})
	}
	return resp
}

func (p *Plane) handleHot(w http.ResponseWriter, r *http.Request) {
	if !p.awaitToken(w, r) {
		return
	}
	k := defaultTopK
	if q := r.URL.Query().Get("k"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "bad k parameter", http.StatusBadRequest)
			return
		}
		k = v
	}
	writeJSON(w, p.hotBody(k), nil)
}

// handleWatch streams the chosen model: one compact JSON line per
// tick, flushed, until the client disconnects or the plane closes.
// avctl watch is the intended consumer.
func (p *Plane) handleWatch(w http.ResponseWriter, r *http.Request) {
	var read func() (any, error)
	switch model := r.URL.Query().Get("model"); model {
	case "", "stock":
		read = func() (any, error) { return p.stockBody("") }
	case "global":
		read = func() (any, error) { return p.globalBody("") }
	case "hot":
		read = func() (any, error) { return p.hotBody(defaultTopK), nil }
	default:
		http.Error(w, "bad model parameter (want stock, global, or hot)", http.StatusBadRequest)
		return
	}
	intervalMS := 1000
	if q := r.URL.Query().Get("interval_ms"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 10 {
			http.Error(w, "bad interval_ms parameter (min 10)", http.StatusBadRequest)
			return
		}
		intervalMS = v
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	tick := time.NewTicker(time.Duration(intervalMS) * time.Millisecond)
	defer tick.Stop()
	for {
		v, err := read()
		if err != nil {
			return
		}
		if err := enc.Encode(v); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}
