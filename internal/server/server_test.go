package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/telemetry"
	"footsteps/internal/wire"
)

func startServer(t *testing.T, cfg core.Config) (*Server, *core.World) {
	t.Helper()
	w := core.NewWorld(cfg)
	s, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, w
}

func postJSON(t *testing.T, url string, body []byte) (int, wire.Outcome) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wire.Outcome
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode outcome: %v", err)
	}
	return resp.StatusCode, out
}

func TestServeHTTPRequestFlow(t *testing.T) {
	s, _ := startServer(t, tinyConfig(31))
	base := "http://" + s.Addr()

	code, out := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, ID: 5, Op: wire.OpRegister, Username: "net-alice", Password: "pw"}))
	if code != http.StatusOK || out.Status != wire.StatusAllowed || out.ID != 5 {
		t.Fatalf("register: %d %+v", code, out)
	}
	_, login := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpLogin, Username: "net-alice", Password: "pw"}))
	if login.Status != wire.StatusAllowed || login.Token == "" {
		t.Fatalf("login: %+v", login)
	}
	_, post := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpPost, Token: login.Token}))
	if post.Status != wire.StatusAllowed || post.Post == 0 {
		t.Fatalf("post: %+v", post)
	}

	// Envelope-level rejection: HTTP 400 with a typed code.
	code, out = postJSON(t, base+"/v1/request", []byte(`{"v":1,"op":"warp"}`))
	if code != http.StatusBadRequest || out.Code != wire.CodeUnknownOp {
		t.Fatalf("unknown op: %d %+v", code, out)
	}
	// Unknown token: HTTP 401.
	code, out = postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpLike, Token: "nope", Post: 1}))
	if code != http.StatusUnauthorized || out.Code != wire.CodeUnknownToken {
		t.Fatalf("unknown token: %d %+v", code, out)
	}

	// Health.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
}

func TestServeBatchNDJSON(t *testing.T) {
	s, _ := startServer(t, tinyConfig(37))
	base := "http://" + s.Addr()

	var in bytes.Buffer
	in.Write(mustJSON(t, wire.Request{V: 1, ID: 1, Op: wire.OpRegister, Username: "b-1", Password: "pw"}))
	in.WriteByte('\n')
	in.Write(mustJSON(t, wire.Request{V: 1, ID: 2, Op: wire.OpLogin, Username: "b-1", Password: "pw"}))
	in.WriteByte('\n')
	in.WriteString(`{"v":1,"id":3,"op":"warp"}` + "\n") // rejected inline, order preserved
	in.Write(mustJSON(t, wire.Request{V: 1, ID: 4, Op: wire.OpRegister, Username: "b-2", Password: "pw"}))
	in.WriteByte('\n')

	resp, err := http.Post(base+"/v1/batch", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var outs []wire.Outcome
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var out wire.Outcome
		if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		outs = append(outs, out)
	}
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4: %+v", len(outs), outs)
	}
	for i, want := range []uint64{1, 2, 3, 4} {
		if outs[i].ID != want {
			t.Fatalf("outcome order broken: %+v", outs)
		}
	}
	if outs[0].Status != wire.StatusAllowed || outs[1].Token == "" || outs[2].Code != wire.CodeUnknownOp || outs[3].Status != wire.StatusAllowed {
		t.Fatalf("outcomes: %+v", outs)
	}
}

func TestServeTelemetryAndMetricz(t *testing.T) {
	cfg := tinyConfig(41)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	s, _ := startServer(t, cfg)
	base := "http://" + s.Addr()

	postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpRegister, Username: "m-1", Password: "pw"}))
	postJSON(t, base+"/v1/request", []byte(`{"v":1,"op":"warp"}`))

	if got := reg.Counter("server.requests").Value(); got != 1 {
		t.Errorf("server.requests = %d, want 1", got)
	}
	if got := reg.Counter("server.rejected").Value(); got != 1 {
		t.Errorf("server.rejected = %d, want 1", got)
	}
	if got := reg.Counter("server.applied").Value(); got != 1 {
		t.Errorf("server.applied = %d, want 1", got)
	}
	if reg.Histogram("server.latency.request", telemetry.DurationBuckets).Count() < 2 {
		t.Error("request latency histogram empty")
	}
	if reg.Histogram("server.enqueue.wait", telemetry.DurationBuckets).Count() < 1 {
		t.Error("enqueue wait histogram empty")
	}

	resp, err := http.Get(base + "/metricz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz: %v %v", err, resp)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("server.requests")) {
		t.Errorf("metricz missing server rows: %s", body)
	}
}

// wsDial performs a minimal RFC 6455 client handshake and returns the
// raw connection.
func wsDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	req := "GET /v1/events HTTP/1.1\r\n" +
		"Host: " + addr + "\r\n" +
		"Connection: Upgrade\r\n" +
		"Upgrade: websocket\r\n" +
		"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil || !strings.Contains(status, "101") {
		t.Fatalf("ws handshake: %q %v", status, err)
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	if n := br.Buffered(); n > 0 {
		t.Fatalf("unexpected %d buffered bytes after handshake", n)
	}
	return conn
}

// readTextFrame reads one unmasked server text frame.
func readTextFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != 0x81 {
		t.Fatalf("frame header %#x, want FIN+text", hdr[0])
	}
	n := int(hdr[1] & 0x7f)
	switch n {
	case 126:
		ext := make([]byte, 2)
		if _, err := io.ReadFull(conn, ext); err != nil {
			t.Fatal(err)
		}
		n = int(ext[0])<<8 | int(ext[1])
	case 127:
		ext := make([]byte, 8)
		if _, err := io.ReadFull(conn, ext); err != nil {
			t.Fatal(err)
		}
		n = 0
		for _, b := range ext {
			n = n<<8 | int(b)
		}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestServeWSEventStream(t *testing.T) {
	s, _ := startServer(t, tinyConfig(43))
	base := "http://" + s.Addr()
	conn := wsDial(t, s.Addr())
	defer conn.Close()

	postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpRegister, Username: "ws-1", Password: "pw"}))
	_, login := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpLogin, Username: "ws-1", Password: "pw"}))
	if login.Token == "" {
		t.Fatalf("login: %+v", login)
	}

	// The login emits a platform event; the subscriber must see it as
	// wire JSON. (Organic events may arrive first; scan for ours.)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < 10000; i++ {
		var ev wire.Event
		frame := readTextFrame(t, conn)
		if err := json.Unmarshal(frame, &ev); err != nil {
			t.Fatalf("frame %q: %v", frame, err)
		}
		if ev.Action == "login" && ev.Client == DefaultClient {
			if ev.Outcome != wire.StatusAllowed || ev.Seq == 0 {
				t.Fatalf("login event: %+v", ev)
			}
			return
		}
	}
	t.Fatal("login event never arrived on the WS stream")
}

// TestServeWSSubscribedAtHandshake: the server registers a /v1/events
// subscriber before it completes the handshake, so a client that has
// read the 101 cannot miss an event its own next request causes (the
// race TestServeWSEventStream used to lose under load).
func TestServeWSSubscribedAtHandshake(t *testing.T) {
	s, _ := startServer(t, tinyConfig(44))
	conn := wsDial(t, s.Addr())
	defer conn.Close()
	s.bcast.mu.Lock()
	n := len(s.bcast.subs)
	s.bcast.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d subscribers registered when the handshake completed, want 1", n)
	}
}

func TestServeGracefulShutdownAndReplay(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "ingress.fing")

	cfg := tinyConfig(47)
	cfg.ServeIngressLog = logPath

	// Live run: capture the FSEV1 stream from world construction on.
	w := core.NewWorld(cfg)
	var live bytes.Buffer
	liveWriter, err := eventio.NewWriter(&live)
	if err != nil {
		t.Fatal(err)
	}
	liveWriter.Attach(w.Plat.Log())
	s, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpRegister, Username: "r-1", Password: "pw"}))
	_, login := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpLogin, Username: "r-1", Password: "pw"}))
	postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpPost, Token: login.Token, Tags: []string{"tag"}}))
	var batch bytes.Buffer
	for i := 0; i < 50; i++ {
		batch.Write(mustJSON(t, wire.Request{V: 1, ID: uint64(i), Op: wire.OpRegister, Username: fmt.Sprintf("r-batch-%d", i), Password: "pw"}))
		batch.WriteByte('\n')
	}
	resp, err := http.Post(base+"/v1/batch", "application/x-ndjson", &batch)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := liveWriter.Flush(); err != nil {
		t.Fatal(err)
	}

	// After shutdown the listener is gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}

	// Replay: fresh world, same config, drive it from the ingress log.
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld(cfg)
	var replayed bytes.Buffer
	replayWriter, err := eventio.NewWriter(&replayed)
	if err != nil {
		t.Fatal(err)
	}
	replayWriter.Attach(w2.Plat.Log())
	applied, err := ReplayIngressLog(w2, bytes.NewReader(logData))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if applied != 53 {
		t.Errorf("replay applied %d envelopes, want 53", applied)
	}
	if err := replayWriter.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("FSEV1 streams diverge: live %d bytes (sha %x), replay %d bytes (sha %x)",
			live.Len(), sha256.Sum256(live.Bytes()), replayed.Len(), sha256.Sum256(replayed.Bytes()))
	}
}

func TestServeOverloadedBackpressure(t *testing.T) {
	cfg := tinyConfig(53)
	cfg.ServeQueueDepth = 1
	w := core.NewWorld(cfg)
	s, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the loop never drains, so the second push must fail
	// with the typed overload error.
	s.accepting.Store(true)
	if _, werr := s.submit([]byte(`{"v":1,"op":"register","username":"a","password":"b"}`)); werr != nil {
		t.Fatalf("first submit: %v", werr)
	}
	if _, werr := s.submit([]byte(`{"v":1,"op":"register","username":"c","password":"d"}`)); werr == nil || werr.Code != wire.CodeOverloaded {
		t.Fatalf("second submit: %v", werr)
	}
}
