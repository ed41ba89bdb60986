package readplane

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avdb/internal/storage"
)

func newHTTPHarness(t *testing.T) (*harness, *httptest.Server) {
	t.Helper()
	h := newHarness(t, 1, storage.Options{}, Config{})
	srv := httptest.NewServer(h.plane.HTTPHandler())
	t.Cleanup(srv.Close)
	return h, srv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHTTPStockEndpoint(t *testing.T) {
	h, srv := newHTTPHarness(t)
	if err := h.eng.Put(storage.Record{Key: "a", Amount: 11}); err != nil {
		t.Fatal(err)
	}
	var all struct {
		Site       uint32           `json:"site"`
		AppliedLSN uint64           `json:"applied_lsn"`
		EngineLSN  uint64           `json:"engine_lsn"`
		LagLSNs    int64            `json:"lag_lsns"`
		Amounts    map[string]int64 `json:"amounts"`
	}
	if resp := getJSON(t, srv.URL+"/read/stock", &all); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if all.Site != 1 || all.Amounts["a"] != 11 || all.AppliedLSN != all.EngineLSN || all.LagLSNs != 0 {
		t.Fatalf("body = %+v", all)
	}
	var one struct {
		Key    string `json:"key"`
		Amount *int64 `json:"amount"`
		Found  *bool  `json:"found"`
	}
	getJSON(t, srv.URL+"/read/stock?key=a", &one)
	if one.Key != "a" || one.Amount == nil || *one.Amount != 11 || one.Found == nil || !*one.Found {
		t.Fatalf("body = %+v", one)
	}
	getJSON(t, srv.URL+"/read/stock?key=missing", &one)
	if one.Found == nil || *one.Found {
		t.Fatalf("missing key reported found: %+v", one)
	}
}

// The token rule over HTTP: the token a commit returns is satisfied
// with zero wait and its read is stamped at or above it; a token above
// LastLSN ends in 504 at its deadline, not before; malformed and
// wrong-site tokens and a wait_ms above the ceiling are client errors.
func TestHTTPTokenWaitAndTimeout(t *testing.T) {
	h, srv := newHTTPHarness(t)
	if err := h.eng.Put(storage.Record{Key: "a", Amount: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.eng.ApplyDelta("a", -4); err != nil {
		t.Fatal(err)
	}
	tok := Mint(1, h.eng.LastLSN())
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.plane.WaitFor(done, tok); err != nil {
		t.Fatalf("commit token needed a wait: %v", err)
	}
	var body struct {
		AppliedLSN uint64 `json:"applied_lsn"`
		Amount     int64  `json:"amount"`
	}
	if resp := getJSON(t, srv.URL+"/read/stock?key=a&wait_ms=0&token="+tok.String(), &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("satisfiable token: status = %d", resp.StatusCode)
	}
	if body.AppliedLSN < tok.LSN || body.Amount != 6 {
		t.Fatalf("read stamped %d shows %d, want a stamp >= %d showing 6", body.AppliedLSN, body.Amount, tok.LSN)
	}

	const waitMS = 30
	start := time.Now()
	future := Mint(1, h.eng.LastLSN()+1)
	if resp := getJSON(t, fmt.Sprintf("%s/read/stock?key=a&token=%s&wait_ms=%d", srv.URL, future, waitMS), nil); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status = %d, want 504", resp.StatusCode)
	}
	if d := time.Since(start); d < waitMS*time.Millisecond {
		t.Fatalf("504 after %v, before its %d ms deadline", d, waitMS)
	}
	if n := h.plane.Stats().RYWTimeouts; n != 1 {
		t.Fatalf("timeouts = %d, want 1", n)
	}

	for _, q := range []string{
		"token=garbage",
		"token=9:1",
		"token=" + Mint(2, h.eng.LastLSN()+100).String(),
		fmt.Sprintf("token=%s&wait_ms=%d", tok, maxWaitMS+1),
		fmt.Sprintf("token=%s&wait_ms=%d", tok, 1<<40),
		fmt.Sprintf("token=%s&wait_ms=-1", tok),
	} {
		if resp := getJSON(t, srv.URL+"/read/stock?"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
	if resp := getJSON(t, fmt.Sprintf("%s/read/stock?token=%s&wait_ms=%d", srv.URL, tok, maxWaitMS), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait_ms at the ceiling: status = %d", resp.StatusCode)
	}
}

func TestHTTPHotAndGlobalEndpoints(t *testing.T) {
	h, srv := newHTTPHarness(t)
	if err := h.eng.Put(storage.Record{Key: "a", Amount: 5}); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.Put(storage.Record{Key: "b", Amount: 6}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.eng.ApplyDelta("b", -1); err != nil {
			t.Fatal(err)
		}
	}
	var hot struct {
		Top []struct {
			Key     string `json:"key"`
			Updates uint64 `json:"updates"`
		} `json:"top"`
	}
	getJSON(t, srv.URL+"/read/hot?k=1", &hot)
	if len(hot.Top) != 1 || hot.Top[0].Key != "b" || hot.Top[0].Updates != 4 {
		t.Fatalf("hot = %+v", hot)
	}
	if resp := getJSON(t, srv.URL+"/read/hot?k=zero", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k: status = %d", resp.StatusCode)
	}
	var global struct {
		Keys []struct {
			Key    string `json:"key"`
			Amount int64  `json:"amount"`
		} `json:"keys"`
	}
	getJSON(t, srv.URL+"/read/global", &global)
	if len(global.Keys) != 2 || global.Keys[0].Key != "a" || global.Keys[1].Amount != 3 {
		t.Fatalf("global = %+v", global)
	}
	getJSON(t, srv.URL+"/read/global?key=b", &global)
	if len(global.Keys) != 1 || global.Keys[0].Key != "b" {
		t.Fatalf("global filter = %+v", global)
	}
}

func TestHTTPWatchStreams(t *testing.T) {
	h, srv := newHTTPHarness(t)
	if err := h.eng.Put(storage.Record{Key: "a", Amount: 9}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/read/watch?model=stock&interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() && lines < 3 {
		var tick struct {
			AppliedLSN uint64           `json:"applied_lsn"`
			Amounts    map[string]int64 `json:"amounts"`
		}
		if err := json.Unmarshal(sc.Bytes(), &tick); err != nil {
			t.Fatalf("line %d: %v (%q)", lines, err, sc.Text())
		}
		if tick.Amounts["a"] != 9 {
			t.Fatalf("tick = %+v", tick)
		}
		lines++
	}
	if lines < 3 {
		t.Fatalf("stream ended after %d lines: %v", lines, sc.Err())
	}
	if resp := getJSON(t, srv.URL+"/read/watch?model=nope", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad model: status = %d", resp.StatusCode)
	}
}
