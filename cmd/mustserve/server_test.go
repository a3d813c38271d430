package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dwst/internal/session"
)

func newTestServer(t *testing.T, cfg session.ServiceConfig) *httptest.Server {
	t.Helper()
	svc, err := session.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(0) })
	ts := httptest.NewServer((&server{svc: svc}).mux())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp
}

const quickSpecJSON = `{"workload": "recvrecv", "procs": 4, "fanin": 2, "timeout": "10ms"}`

func TestAPISubmitWaitVerdict(t *testing.T) {
	ts := newTestServer(t, session.ServiceConfig{Pool: 2, QueueDepth: 8})

	resp, body := postJSON(t, ts.URL+"/sessions", quickSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var v sessionView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Workload != "recvrecv" {
		t.Fatalf("submit view = %+v", v)
	}

	var wait struct {
		Terminal bool        `json:"terminal"`
		Session  sessionView `json:"session"`
	}
	getJSON(t, ts.URL+"/sessions/"+v.ID+"/wait?timeout=30s", &wait)
	if !wait.Terminal || wait.Session.State != session.StateDone {
		t.Fatalf("wait = %+v", wait)
	}
	if wait.Session.Verdict != "deadlock" || wait.Session.Stats == nil || !wait.Session.Stats.Deadlock {
		t.Fatalf("session missed the deadlock: %+v", wait.Session)
	}

	// GET by id carries the full stats; the list view is summary-only.
	var got sessionView
	getJSON(t, ts.URL+"/sessions/"+v.ID, &got)
	if got.Stats == nil {
		t.Error("GET /sessions/{id} dropped stats")
	}
	var list struct {
		Sessions []sessionView `json:"sessions"`
	}
	getJSON(t, ts.URL+"/sessions", &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != v.ID || list.Sessions[0].Stats != nil {
		t.Errorf("list = %+v", list.Sessions)
	}
}

func TestAPIRejectsBadSpecs(t *testing.T) {
	ts := newTestServer(t, session.ServiceConfig{Pool: 1, QueueDepth: 8, MaxProcs: 16})
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"workload":`},
		{"unknown field", `{"workload": "recvrecv", "procs": 4, "bogus": 1}`},
		{"retired no_batch field", `{"workload": "recvrecv", "procs": 4, "no_batch": true}`},
		{"retired mem_budget -1", `{"workload": "recvrecv", "procs": 4, "mem_budget": -1}`},
		{"retired engine field", `{"workload": "recvrecv", "procs": 4, "engine": "cmh"}`},
		{"retired prefer_waitstate field", `{"workload": "recvrecv", "procs": 4, "prefer_waitstate": true}`},
		{"unknown workload", `{"workload": "nope", "procs": 4}`},
		{"zero procs", `{"workload": "recvrecv"}`},
		{"over procs cap", `{"workload": "recvrecv", "procs": 64}`},
		{"centralized with fault", `{"workload": "recvrecv", "procs": 4, "mode": "centralized", "fault": {"drop": 0.1}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/sessions", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Code != "bad_request" {
				t.Errorf("error body = %s (%v), want code bad_request", body, err)
			}
		})
	}
}

func TestAPIOverloadReturns429(t *testing.T) {
	ts := newTestServer(t, session.ServiceConfig{Pool: 1, QueueDepth: 2})

	// Fill the admission bound with sessions that hold their slots: rank 0
	// parks forever, so only explicit cancellation releases them.
	forever := `{"workload": "clean", "procs": 2, "iters": 2, "fanin": 2,
		"timeout": "10ms", "fault": {"rank_stalls": "0:1:0"}}`
	ids := []string{}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/sessions", forever)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d: status %d body %s", i, resp.StatusCode, body)
		}
		var v sessionView
		json.Unmarshal(body, &v)
		ids = append(ids, v.ID)
	}

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/sessions", quickSpecJSON)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("overload rejection took %v, want fast fail", elapsed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Code != "overloaded" {
		t.Errorf("error body = %s, want code overloaded", body)
	}

	// Cancelling a tenant reopens admission.
	resp2, body2 := postJSON(t, ts.URL+"/sessions/"+ids[0]+"/cancel", "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d body %s", resp2.StatusCode, body2)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/sessions", quickSpecJSON)
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never reopened after cancel")
		}
		time.Sleep(20 * time.Millisecond)
	}
	postJSON(t, ts.URL+"/sessions/"+ids[1]+"/cancel", "")
}

func TestAPIUnknownSessionIs404(t *testing.T) {
	ts := newTestServer(t, session.ServiceConfig{Pool: 1, QueueDepth: 2})
	for _, path := range []string{"/sessions/nope", "/sessions/nope/wait"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/sessions/nope/cancel", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown = %d, want 404", resp.StatusCode)
	}
}

func TestAPIMetricsAndHealth(t *testing.T) {
	ts := newTestServer(t, session.ServiceConfig{Pool: 2, QueueDepth: 8})

	resp, body := postJSON(t, ts.URL+"/sessions", quickSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v sessionView
	json.Unmarshal(body, &v)
	var wait struct {
		Terminal bool `json:"terminal"`
	}
	getJSON(t, ts.URL+"/sessions/"+v.ID+"/wait?timeout=30s", &wait)
	if !wait.Terminal {
		t.Fatal("session not terminal")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"mustserve_pool_size 2",
		"mustserve_queue_depth 8",
		"mustserve_sessions_submitted_total 1",
		"mustserve_sessions_done_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}

	var health map[string]string
	hresp := getJSON(t, ts.URL+"/healthz", &health)
	if hresp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", hresp.StatusCode, health)
	}
}
