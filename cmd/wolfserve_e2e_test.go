package cmd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startWolfserve boots the built wolfserve on a port the system picks and
// returns its base URL, read from the line the server logs once it has bound.
func startWolfserve(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "wolfserve"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// One goroutine reads the log to its end (the server must never block on
	// a full pipe); it ends when the process does, and Wait follows it.
	bound := make(chan string, 1)
	drained := make(chan struct{})
	var log bytes.Buffer
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		for sent := false; sc.Scan(); {
			if _, rest, ok := strings.Cut(sc.Text(), "wolfserve: listening on "); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				bound <- addr
				sent = true
				continue
			}
			log.WriteString(sc.Text() + "\n")
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-drained
		cmd.Wait()
	})
	select {
	case addr := <-bound:
		return "http://" + addr
	case <-drained:
		t.Fatalf("wolfserve exited before listening:\n%s", log.String())
	case <-time.After(30 * time.Second):
		t.Fatal("wolfserve never logged the address it bound")
	}
	return ""
}

// httpJSON sends body (nil for none) and decodes a JSON answer into out (nil
// to ignore it); it returns the status code.
func httpJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %v in %q", method, url, err, raw)
		}
	}
	return resp.StatusCode
}

func httpText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// The multi-tenant server as a user meets it: the real binary, real HTTP.
// Two sessions with colliding definitions stay apart, a deadline aborts a
// runaway evaluation, /metrics carries the serve counters and the per-engine
// latency histogram, one eval that trips a background tier promotion shows on
// /debug/traces as one tree (a serve root, and a compile span whose parent is
// that root and whose engine label is the session), the Chrome export parses,
// and a destroyed session answers 404. The in-process twins of these checks
// are internal/serve's tests; this one also covers the flags, the listener
// and the wiring of cmd/wolfserve's main.
func TestWolfserveEndToEnd(t *testing.T) {
	base := startWolfserve(t, "-autocompile-threshold", "2")
	type evalResponse struct {
		Value    string `json:"value"`
		TimedOut bool   `json:"timed_out"`
	}
	create := func() string {
		var cr struct {
			ID string `json:"id"`
		}
		if code := httpJSON(t, "POST", base+"/v1/sessions", nil, &cr); code != http.StatusCreated {
			t.Fatalf("create session: %d", code)
		}
		return cr.ID
	}
	eval := func(id string, body map[string]any) (int, evalResponse) {
		var er evalResponse
		code := httpJSON(t, "POST", base+"/v1/sessions/"+id+"/eval", body, &er)
		return code, er
	}
	value := func(id, input string) string {
		code, er := eval(id, map[string]any{"input": input})
		if code != http.StatusOK {
			t.Fatalf("eval %q in %s: %d", input, id, code)
		}
		return er.Value
	}

	a, b := create(), create()
	value(a, "f[n_] := n + 1")
	value(b, "f[n_] := n * 10")
	if va, vb := value(a, "f[5]"), value(b, "f[5]"); va != "6" || vb != "50" {
		t.Fatalf("session isolation broken: f[5] = %q and %q, want 6 and 50", va, vb)
	}

	if _, er := eval(a, map[string]any{"input": "While[True, 1]", "timeout_ms": 200}); !er.TimedOut || er.Value != "$Aborted" {
		t.Fatalf("deadline abort: %+v, want timed-out $Aborted", er)
	}

	// The tier compile is asynchronous: poll for the linked tree.
	value(a, "g[n_] := n*n*n")
	for i := 0; i < 3; i++ {
		value(a, "g[4]")
	}
	type event struct {
		Type     string `json:"type"`
		Name     string `json:"name"`
		TraceID  string `json:"trace_id"`
		SpanID   string `json:"span_id"`
		ParentID string `json:"parent_id"`
		Engine   string `json:"engine"`
	}
	linked := func() bool {
		var doc struct {
			Traces []struct {
				Events []event `json:"events"`
			} `json:"traces"`
		}
		httpJSON(t, "GET", base+"/debug/traces", nil, &doc)
		for _, tr := range doc.Traces {
			for _, root := range tr.Events {
				if root.Type != "serve" || root.Name != a {
					continue
				}
				for _, e := range tr.Events {
					if e.Type != "compile" || e.ParentID != root.SpanID {
						continue
					}
					if e.TraceID != root.TraceID || e.Engine != a {
						t.Fatalf("compile span %+v is not in the trace and engine of its root %+v", e, root)
					}
					return true
				}
			}
		}
		return false
	}
	for deadline := time.Now().Add(10 * time.Second); !linked(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no serve→compile span tree on /debug/traces")
		}
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if httpJSON(t, "GET", base+"/debug/traces?format=chrome", nil, &chrome); len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export empty")
	}

	metrics := httpText(t, base+"/metrics")
	for _, want := range []string{
		"wolfc_serve_evals", "wolfc_serve_sessions_created",
		fmt.Sprintf(`wolfc_serve_eval_latency_ns_bucket{engine="%s"`, a),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	if code := httpJSON(t, "DELETE", base+"/v1/sessions/"+a, nil, nil); code != http.StatusNoContent {
		t.Fatalf("destroy: %d", code)
	}
	if code, _ := eval(a, map[string]any{"input": "1"}); code != http.StatusNotFound {
		t.Fatalf("eval on a destroyed session answered %d, want 404", code)
	}
	if got := value(b, "f[5]"); got != "50" {
		t.Fatalf("session b after a's destruction: f[5] = %q", got)
	}
}
