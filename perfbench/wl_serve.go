package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/server"
	"footsteps/internal/trace"
	"footsteps/internal/wire"
	"footsteps/perfbench/measure"
)

// Serve workload parameters. The fleet is large enough that the hourly
// rate limit refuses few envelopes at these rates, so the latencies
// measure the accept path rather than the rejection path. The server
// drops event frames for a subscriber 1,024 events behind: at 25,000/s
// a 41 ms stall of the in-process WebSocket reader, which the host's
// slow spells produced, lost frames; 15,000/s tolerates 68 ms.
const (
	fleetSize   = 6000
	rateLo      = 5_000                 // envelopes/s
	rateHi      = 15_000                // envelopes/s
	maxGenLag   = 20 * time.Millisecond // generator lateness that voids a phase
	maxBatch    = 1024                  // envelopes per POST
	satSlice    = 8                     // batches per capacity sample
	serveSetups = 3
)

// served is one running server with its fleet.
type served struct {
	w       *core.World
	s       *server.Server
	base    string
	client  *http.Client
	hash    hash.Hash
	ev      *eventio.Writer
	logPath string
	tokens  []string
	ids     []uint64
	posts   []uint64
	fleet   map[uint64]bool
}

func serveConfig(seed uint64, logPath string) core.Config {
	cfg := core.TestConfig()
	cfg.Seed = seed
	cfg.ServeIngressLog = logPath
	return cfg
}

// startServed builds the world, starts the server with its ingress log,
// and registers, logs in and seeds one post for every fleet account.
func startServed(cfg core.Config) (*served, error) {
	sv := &served{w: core.NewWorld(cfg), logPath: cfg.ServeIngressLog, fleet: map[uint64]bool{}}
	sv.hash = sha256.New()
	ev, err := eventio.NewWriter(sv.hash)
	if err != nil {
		return nil, err
	}
	sv.ev = ev.Attach(sv.w.Plat.Log())
	s, err := server.New(sv.w)
	if err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	sv.s = s
	sv.base = "http://" + s.Addr()
	// One connection for requests; the WebSocket is the process's other.
	sv.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}

	batch := func(line func(i int, b []byte) []byte, n int) ([]outcome, error) {
		var buf []byte
		for i := 0; i < n; i++ {
			buf = append(line(i, buf), '\n')
		}
		body, err := sv.post(buf)
		if err != nil {
			return nil, err
		}
		return parseOutcomes(body)
	}
	regs, err := batch(func(i int, b []byte) []byte {
		return fmt.Appendf(b, `{"v":1,"op":"register","username":"bench-%d","password":"pw"}`, i)
	}, fleetSize)
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	logins, err := batch(func(i int, b []byte) []byte {
		return fmt.Appendf(b, `{"v":1,"op":"login","username":"bench-%d","password":"pw"}`, i)
	}, fleetSize)
	if err != nil {
		return nil, fmt.Errorf("login: %w", err)
	}
	for i := range regs {
		if regs[i].status != "allowed" || logins[i].status != "allowed" {
			return nil, fmt.Errorf("fleet account %d: register %s, login %s", i, regs[i].status, logins[i].status)
		}
		sv.ids = append(sv.ids, regs[i].account)
		sv.tokens = append(sv.tokens, logins[i].token)
		sv.fleet[regs[i].account] = true
	}
	posts, err := batch(func(i int, b []byte) []byte {
		return fmt.Appendf(b, `{"v":1,"op":"post","token":%q,"tags":["bench"]}`, sv.tokens[i])
	}, fleetSize)
	if err != nil {
		return nil, fmt.Errorf("seed posts: %w", err)
	}
	for i, p := range posts {
		if p.status != "allowed" || p.post == 0 {
			return nil, fmt.Errorf("seed post %d: %s", i, p.status)
		}
		sv.posts = append(sv.posts, p.post)
	}
	return sv, nil
}

func (sv *served) post(body []byte) ([]byte, error) {
	resp, err := sv.client.Post(sv.base+"/v1/batch", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("batch: HTTP %s", resp.Status)
	}
	return out, err
}

// stop shuts the server down (sealing the ingress log) and returns the
// live FSEV1 stream's sha256.
func (sv *served) stop() ([32]byte, error) {
	var sum [32]byte
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sv.s.Shutdown(ctx)
	sv.client.CloseIdleConnections()
	if ferr := sv.ev.Flush(); err == nil {
		err = ferr
	}
	copy(sum[:], sv.hash.Sum(nil))
	return sum, err
}

// outcome is the part of a /v1 outcome line the benchmark reads.
type outcome struct {
	id, account, post uint64
	status, token     string
}

// parseOutcomes reads NDJSON outcome lines without reflection: the
// generator shares the CPUs with the server it measures.
func parseOutcomes(body []byte) ([]outcome, error) {
	var outs []outcome
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 {
			continue
		}
		o := outcome{status: jsonString(line, `"status":`), token: jsonString(line, `"token":`)}
		o.id, _ = jsonUint(line, `"id":`)
		o.account, _ = jsonUint(line, `"account":`)
		o.post, _ = jsonUint(line, `"post":`)
		if o.status == "" {
			return nil, fmt.Errorf("outcome without status: %.100s", line)
		}
		outs = append(outs, o)
	}
	return outs, nil
}

func jsonUint(b []byte, key string) (uint64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(b[:j]), 10, 64)
	return v, err == nil
}

func jsonString(b []byte, key string) string {
	i := bytes.Index(b, []byte(key))
	if i < 0 || i+len(key) >= len(b) || b[i+len(key)] != '"' {
		return ""
	}
	b = b[i+len(key)+1:]
	j := bytes.IndexByte(b, '"')
	if j < 0 {
		return ""
	}
	return string(b[:j])
}

// Action codes for event matching; a frame's "action" names them.
const (
	actFollow uint8 = iota + 1
	actLike
	actComment
	actUnfollow
)

var actionNames = [...][]byte{actFollow: []byte(`"follow"`), actLike: []byte(`"like"`),
	actComment: []byte(`"comment"`), actUnfollow: []byte(`"unfollow"`)}

// evKey identifies the event an action envelope produces, as the WS
// frame carrying it reports it.
type evKey struct {
	actor, target, post uint64
	action              uint8
}

// wsClient subscribes to /v1/events and matches frames to envelopes.
type wsClient struct {
	conn  net.Conn
	fleet map[uint64]bool
	mu    sync.Mutex
	wait  map[evKey][]expect
	done  chan struct{}
	err   error
}

type expect struct {
	due   time.Time
	phase *phaseStats
}

func dialWS(addr string, fleet map[uint64]bool) (*wsClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString([]byte("perfbench-key-16"))
	fmt.Fprintf(conn, "GET /v1/events HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", addr, key)
	br := bufio.NewReaderSize(conn, 1<<16)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("websocket upgrade: %v (%v)", err, resp)
	}
	c := &wsClient{conn: conn, fleet: fleet, wait: map[evKey][]expect{}, done: make(chan struct{})}
	go c.read(br)
	return c, nil
}

// expect registers the frames a batch of envelopes should produce,
// before the batch is sent.
func (c *wsClient) expect(keys []evKey, sched measure.Schedule, first int, ps *phaseStats) {
	c.mu.Lock()
	for i, k := range keys {
		c.wait[k] = append(c.wait[k], expect{due: sched.Due(first + i), phase: ps})
	}
	c.mu.Unlock()
}

// read consumes text frames until the connection closes.
func (c *wsClient) read(br *bufio.Reader) {
	defer close(c.done)
	var hdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:2]); err != nil {
			c.err = err
			return
		}
		n := uint64(hdr[1] & 0x7f)
		switch n {
		case 126:
			if _, err := io.ReadFull(br, hdr[:2]); err != nil {
				c.err = err
				return
			}
			n = uint64(hdr[0])<<8 | uint64(hdr[1])
		case 127:
			if _, err := io.ReadFull(br, hdr[:8]); err != nil {
				c.err = err
				return
			}
			n = 0
			for _, b := range hdr {
				n = n<<8 | uint64(b)
			}
		}
		if uint64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			c.err = err
			return
		}
		now := time.Now()
		actor, _ := jsonUint(payload, `"actor":`)
		if !c.fleet[actor] {
			continue
		}
		k := evKey{actor: actor}
		if i := bytes.Index(payload, []byte(`"action":`)); i >= 0 {
			v := payload[i+len(`"action":`):]
			for code, name := range actionNames {
				if name != nil && bytes.HasPrefix(v, name) {
					k.action = uint8(code)
				}
			}
		}
		if k.action == actLike || k.action == actComment {
			k.post, _ = jsonUint(payload, `"post":`)
		} else {
			k.target, _ = jsonUint(payload, `"target":`)
		}
		c.mu.Lock()
		if q := c.wait[k]; len(q) > 0 {
			e := q[0]
			if len(q) == 1 {
				delete(c.wait, k)
			} else {
				c.wait[k] = q[1:]
			}
			e.phase.delivered = append(e.phase.delivered, now.Sub(e.due))
		}
		c.mu.Unlock()
	}
}

// missing reports how many frames the phases' outcomes promised that
// have not arrived.
func (c *wsClient) missing(phases ...*phaseStats) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ps := range phases {
		n += ps.expected - len(ps.delivered)
	}
	return n
}

// phaseStats is one open-loop phase at a fixed offered rate.
type phaseStats struct {
	rate      float64
	sent      int
	batches   int
	lat       latencies // per envelope, due → outcome (saturate: per batch round trip)
	delivered latencies // per envelope, due → WS frame (written by the reader)
	expected  int       // WS frames the outcomes promise
	genLag    latencies // per batch: send − due of its newest envelope
	errors    int       // transport errors, error outcomes, missing outcomes
	cpu       time.Duration
	start     time.Time
	// Ledger inputs: summed over envelopes.
	latSum, sendWait, roundtrip time.Duration
}

// generator drives the fleet's mixed action stream. Each batch is built
// into reused buffers just before it is sent, so the generator allocates
// little while it shares the CPUs with the server it measures, and the
// envelope sequence depends only on the seed.
type generator struct {
	sv   *served
	ws   *wsClient
	rng  *rand.Rand
	next uint64  // next envelope id
	buf  []byte  // the batch as NDJSON
	keys []evKey // the event each envelope of the batch produces
	// parse, when set, collects envelopes for the wire.parse_ns timing.
	parse [][]byte
	// led, when set, records each batch's spans under the phase span:
	// gen.queue (oldest due → send) and http.roundtrip (send → outcome),
	// sharing the batch's first envelope id as their request id.
	led   *ledger
	phase uint64
}

// fill builds the next n envelopes as the batch.
func (g *generator) fill(n int) {
	sv := g.sv
	g.buf, g.keys = g.buf[:0], g.keys[:0]
	for i := 0; i < n; i++ {
		a := g.rng.Intn(len(sv.tokens))
		k := evKey{actor: sv.ids[a]}
		b := append(g.buf, `{"v":1,"id":`...)
		b = strconv.AppendUint(b, g.next, 10)
		switch x := g.rng.Intn(10); {
		case x < 4:
			k.action, k.target = actFollow, sv.ids[g.rng.Intn(len(sv.ids))]
			b = append(b, `,"op":"follow","target":`...)
			b = strconv.AppendUint(b, k.target, 10)
		case x < 7:
			k.action, k.post = actLike, sv.posts[g.rng.Intn(len(sv.posts))]
			b = append(b, `,"op":"like","post":`...)
			b = strconv.AppendUint(b, k.post, 10)
		case x < 9:
			k.action, k.post = actComment, sv.posts[g.rng.Intn(len(sv.posts))]
			b = append(b, `,"op":"comment","text":"nice one","post":`...)
			b = strconv.AppendUint(b, k.post, 10)
		default:
			k.action, k.target = actUnfollow, sv.ids[g.rng.Intn(len(sv.ids))]
			b = append(b, `,"op":"unfollow","target":`...)
			b = strconv.AppendUint(b, k.target, 10)
		}
		b = append(b, `,"token":"`...)
		b = append(b, sv.tokens[a]...)
		b = append(b, "\"}\n"...)
		if g.parse != nil && len(g.parse) < 20000 {
			g.parse = append(g.parse, append([]byte(nil), b[len(g.buf):len(b)-1]...))
		}
		g.buf = b
		g.keys = append(g.keys, k)
		g.next++
	}
}

// post sends the batch filled from envelope id first and checks that
// every envelope got exactly its own outcome, in order. It returns the
// arrival time and, per envelope, whether its outcome was a platform
// verdict (which emits an event) rather than an error.
func (g *generator) post(first uint64, ps *phaseStats) (time.Time, []bool) {
	n := len(g.keys)
	body, err := g.sv.post(g.buf)
	arrived := time.Now()
	ps.batches++
	ps.sent += n
	if err != nil {
		ps.errors += n
		return arrived, nil
	}
	verdict := make([]bool, n)
	got := 0
	for rest := body; len(rest) > 0; got++ {
		line := rest
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			line, rest = rest[:j], rest[j+1:]
		} else {
			rest = nil
		}
		if id, _ := jsonUint(line, `"id":`); got >= n || id != first+uint64(got) {
			ps.errors++
			continue
		}
		switch statusOf(line) {
		case "allowed", "blocked", "rate-limited", "failed":
			verdict[got] = true
			ps.expected++
		default:
			ps.errors++
		}
	}
	if got < n {
		ps.errors += n - got
	}
	return arrived, verdict
}

// run offers rate envelopes/s for dur on the single connection: each
// POST carries every envelope due by the time the connection is free,
// so a slow answer grows the next batch and its wait is charged to the
// envelopes that queued behind it.
func (g *generator) run(rate float64, dur time.Duration) *phaseStats {
	total := int(rate * dur.Seconds())
	ps := &phaseStats{rate: rate, lat: make(latencies, 0, total), delivered: make(latencies, 0, total)}
	runtime.GC() // start every phase from the same collector state
	ps.start = time.Now()
	cpu0 := cpuTime()
	sched := measure.Schedule{Start: ps.start, Rate: rate}
	for sent := 0; sent < total; {
		now := time.Now()
		due := min(sched.DueBy(now), total)
		if due <= sent {
			time.Sleep(sched.Due(sent).Sub(now))
			continue
		}
		n := min(due-sent, maxBatch)
		first := g.next
		g.fill(n)
		g.ws.expect(g.keys, sched, sent, ps)
		send := time.Now()
		ps.genLag = append(ps.genLag, send.Sub(sched.Due(sent+n-1)))
		arrived, verdict := g.post(first, ps)
		for i := 0; i < n; i++ {
			ps.sendWait += send.Sub(sched.Due(sent + i))
			if i < len(verdict) && verdict[i] {
				l := measure.Latency(sched.Due(sent+i), arrived)
				ps.lat = append(ps.lat, l)
				ps.latSum += l
			}
		}
		ps.roundtrip += time.Duration(n) * arrived.Sub(send)
		if g.led != nil {
			g.led.span("gen.queue", g.phase, first, sched.Due(sent), send)
			g.led.span("http.roundtrip", g.phase, first, send, arrived)
		}
		sent += n
	}
	ps.cpu = cpuTime() - cpu0
	return ps
}

// statusOf returns an outcome line's status without allocating.
func statusOf(line []byte) string {
	const key = `"status":"`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return ""
	}
	v := line[i+len(key):]
	for _, st := range []string{"allowed", "blocked", "rate-limited", "failed", "unavailable", "error"} {
		if len(v) > len(st) && string(v[:len(st)]) == st && v[len(st)] == '"' {
			return st
		}
	}
	return ""
}

// saturate keeps the connection busy with full batches for dur and
// returns the completion rate: the server's capacity, the ceiling that
// any rate meeting a latency limit stays under. The rate is the median
// over slices of satSlice batches (about 80 ms each), so a slow spell
// of the host that covers a few slices does not move it. One average
// over the whole phase spread 0.18-0.32 (interquartile over median)
// across ten seeds on a 2-vCPU host. A bisection for the highest rate
// whose p99 meets a limit decides each step on a noisy tail near the
// knee, and there it landed anywhere from 64k to 87k envelopes/s
// between runs.
//
// It also times each full batch's round trip: what a bulk /v1/batch
// client waits for 1,024 outcomes at capacity.
func (g *generator) saturate(dur time.Duration) (float64, *phaseStats) {
	ps := &phaseStats{}
	runtime.GC()
	start := time.Now()
	var rates []float64
	sliceStart, sliceDone := start, 0
	for time.Since(start) < dur {
		first := g.next
		g.fill(maxBatch)
		send := time.Now()
		arrived, _ := g.post(first, ps)
		ps.lat = append(ps.lat, arrived.Sub(send))
		if ps.batches%satSlice == 0 {
			done := ps.sent - ps.errors
			rates = append(rates, float64(done-sliceDone)/arrived.Sub(sliceStart).Seconds())
			sliceStart, sliceDone = arrived, done
		}
	}
	return median(rates), ps
}

// settle lets the world loop answer everything in flight so the next
// phase starts from an idle server.
func (g *generator) settle() { time.Sleep(50 * time.Millisecond) }

// serveRun is one traced or untraced serve measurement.
type serveRun struct {
	setups     []time.Duration
	lo, hi     *phaseStats
	capacity   float64     // envelopes/s completed with the connection saturated
	sat        *phaseStats // the saturating phase's outcome checks
	live       float64
	liveSHA    [32]byte
	replaySHA  [32]byte
	replayed   int
	replayTime time.Duration
	parseNs    float64
	missingWS  int
	queueMax   int64
	// Ledger inputs over the lo and hi phases.
	latSum, sendWait, roundtrip time.Duration
	enqAtStart, enqAtEnd        int64 // server.enqueue.wait sum
}

// serveOnce sets the server up serveSetups times (keeping the last),
// runs the lo, hi and saturating phases, shuts down, and replays the
// ingress log on a fresh world.
func serveOnce(r *result, o opts, tr *tracer, led *ledger, win uint64) *serveRun {
	run := &serveRun{}
	window := time.Duration(o.seconds * float64(time.Second))
	logPath := filepath.Join(o.tmp, "serve-ingress.fing")
	defer os.Remove(logPath)
	var sv *served
	for i := 0; i < serveSetups; i++ {
		cfg := serveConfig(o.seed, logPath)
		if tr != nil && i == serveSetups-1 {
			for _, opt := range tr.options() {
				opt(&cfg)
			}
		}
		t0 := time.Now()
		var err error
		sv, err = startServed(cfg)
		t1 := time.Now()
		run.setups = append(run.setups, t1.Sub(t0))
		if err != nil {
			r.check(false, "serve: setup: %v", err)
			return nil
		}
		if i < serveSetups-1 {
			if _, err := sv.stop(); err != nil {
				r.check(false, "serve: stop: %v", err)
				return nil
			}
			sv = nil
			release()
		} else if led != nil {
			led.span("core.setup", win, 0, t0, t1)
			tr.markRun()
			run.enqAtStart = tr.reg.Snapshot().Histograms["server.enqueue.wait"].Sum
		}
	}
	ws, err := dialWS(sv.s.Addr(), sv.fleet)
	if err != nil {
		r.check(false, "serve: %v", err)
		sv.stop()
		return nil
	}
	g := &generator{sv: sv, ws: ws, rng: rand.New(rand.NewSource(int64(o.seed)))}
	if tr != nil {
		g.parse = [][]byte{}
		depth := tr.reg.Gauge("server.queue.depth")
		stop := make(chan struct{})
		polled := make(chan struct{})
		go func() {
			defer close(polled)
			for {
				run.queueMax = max(run.queueMax, depth.Value())
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()
		defer func() { close(stop); <-polled }()
	}
	phase := func(name string, rate float64, dur time.Duration) *phaseStats {
		if led == nil {
			return g.run(rate, dur)
		}
		g.led, g.phase = led, led.begin(name, win)
		defer led.end(g.phase)
		return g.run(rate, dur)
	}
	// The saturating phase carries both gated timings, so it gets the
	// largest share: more slices for the medians to choose from.
	run.lo = phase("phase.lo", rateLo, window*25/100)
	g.settle()
	run.hi = phase("phase.hi", rateHi, window*20/100)
	g.led = nil
	// The latency ledger covers the lo and hi phases.
	for _, ps := range []*phaseStats{run.lo, run.hi} {
		run.latSum += ps.latSum
		run.sendWait += ps.sendWait
		run.roundtrip += ps.roundtrip
	}
	if tr != nil {
		tr.markEnd()
		run.enqAtEnd = tr.reg.Snapshot().Histograms["server.enqueue.wait"].Sum
	}
	g.settle()
	satStart := time.Now()
	run.capacity, run.sat = g.saturate(window * 35 / 100)
	if led != nil {
		led.span("phase.saturate", win, 0, satStart, time.Now())
	}

	// Every promised frame must arrive; give the stream a moment.
	deadline := time.Now().Add(5 * time.Second)
	for ws.missing(run.lo, run.hi) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	run.missingWS = ws.missing(run.lo, run.hi)
	run.live = liveHeapMiB()
	run.liveSHA, err = sv.stop()
	ws.conn.Close()
	<-ws.done
	if err != nil {
		r.check(false, "serve: shutdown: %v", err)
	}
	if g.parse != nil {
		t0 := time.Now()
		for _, env := range g.parse {
			if _, werr := wire.ParseRequest(env); werr != nil {
				r.check(false, "serve: generated envelope rejected: %v", werr)
				break
			}
		}
		run.parseNs = float64(time.Since(t0).Nanoseconds()) / float64(len(g.parse))
	}

	// Replay the ingress log on a fresh world: the FSEV1 stream must be
	// the live one, byte for byte.
	cfg := serveConfig(o.seed, "")
	w := core.NewWorld(cfg)
	h := sha256.New()
	ev, err := eventio.NewWriter(h)
	if err != nil {
		r.check(false, "serve: %v", err)
		return run
	}
	ev.Attach(w.Plat.Log())
	f, err := os.Open(logPath)
	if err != nil {
		r.check(false, "serve: ingress log: %v", err)
		return run
	}
	defer f.Close()
	t0 := time.Now()
	run.replayed, err = server.ReplayIngressLog(w, bufio.NewReader(f))
	run.replayTime = time.Since(t0)
	if led != nil {
		led.span("server.replay", win, 0, t0, time.Now())
	}
	if ferr := ev.Flush(); err == nil {
		err = ferr
	}
	copy(run.replaySHA[:], h.Sum(nil))
	r.check(err == nil && run.replaySHA == run.liveSHA,
		"serve: ingress replay of %d envelopes: sha256 %x, live %x (err %v)", run.replayed, run.replaySHA[:8], run.liveSHA[:8], err)
	return run
}

// account adds the phases' envelopes and failures to the result.
func (run *serveRun) account(r *result) {
	for _, ps := range []*phaseStats{run.lo, run.hi} {
		r.attempted += ps.sent
		r.failed += ps.errors
		if ps.errors > 0 {
			r.correct = false
			r.problems = append(r.problems, fmt.Sprintf("serve: %d of %d envelopes at %.0f/s failed", ps.errors, ps.sent, ps.rate))
		}
		if lag, _ := ps.genLag.tail(); lag > ms(maxGenLag) {
			r.fail("serve: generator ran %.1f ms late at %.0f/s (limit %v): the phase does not measure the server", lag, ps.rate, maxGenLag)
		}
		if !measure.Supports(ps.batches, 99) {
			r.fail("serve: %d batches at %.0f/s cannot carry a p99", ps.batches, ps.rate)
		}
	}
	r.attempted += run.lo.expected + run.hi.expected + run.sat.sent
	r.failed += run.sat.errors
	if run.sat.errors > 0 {
		r.correct = false
		r.problems = append(r.problems, fmt.Sprintf("serve: %d of %d envelopes failed in the saturating phase", run.sat.errors, run.sat.sent))
	}
	if run.missingWS > 0 {
		r.fail("serve: %d event frames never arrived on the WebSocket", run.missingWS)
		r.failed += run.missingWS - 1
	}
}

func runServe(o opts) *result {
	r := newResult()
	if o.trace {
		return traceServe(o, r)
	}
	run := serveOnce(r, o, nil, nil, 0)
	if run == nil {
		return r
	}
	run.account(r)
	hi, lo := run.hi, run.lo
	r.set(r.e2e, "setup_s", medianSeconds(run.setups), "s", len(run.setups))
	r.set(r.e2e, "throughput_per_s", run.capacity, "1/s", run.sat.batches/satSlice)
	// The gated latency is a full batch's round trip at capacity, which
	// the server's work dominates. The open-loop medians are dominated by
	// goroutine wake-ups of a few hundred µs; in the host's slow spells
	// they moved 60% between runs (lo) and more (hi). They stay in the
	// report.
	r.set(r.e2e, "latency_p50_ms", run.sat.lat.p50(), "ms", run.sat.batches)
	r.set(r.e2e, "heap_live_mib", run.live, "MiB", 1)
	r.set(r.named, "capacity_rps", run.capacity, "1/s", run.sat.batches/satSlice)
	r.set(r.named, "batch_rtt_ms_p50", run.sat.lat.p50(), "ms", run.sat.batches)
	r.set(r.named, "req_p50_ms_lo", lo.lat.p50(), "ms", lo.batches)
	r.set(r.named, "req_p99_ms_lo", lo.lat.pct(99, lo.batches), "ms", lo.batches)
	r.set(r.named, "req_p50_ms_hi", hi.lat.p50(), "ms", hi.batches)
	r.set(r.named, "req_p99_ms_hi", hi.lat.pct(99, hi.batches), "ms", hi.batches)
	r.set(r.named, "deliver_p99_ms_hi", hi.delivered.pct(99, hi.batches), "ms", hi.batches)
	r.set(r.named, "fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
	return r
}

// traceServe runs one untraced pass for the overhead baseline, then a
// traced one. Its ledger attributes envelope latency-seconds (the sum,
// over envelopes, of due → outcome) rather than wall time, because the
// server's work overlaps on several goroutines.
func traceServe(o opts, r *result) *result {
	base := serveOnce(r, o, nil, nil, 0)
	if base == nil {
		return r
	}
	release()
	tr, err := newTracer(o.seed)
	if err != nil {
		r.check(false, "tracer: %v", err)
		return r
	}
	cpu, err := startCPU()
	if err != nil {
		r.check(false, "%v", err)
		return r
	}
	led := newLedger()
	m0 := memStats()
	win := led.begin("window", 0)
	run := serveOnce(r, o, tr, led, win)
	led.end(win)
	window := deltaSince(m0)
	perr := cpu.stop(r)
	terr := tr.finish()
	if run == nil || perr != nil || terr != nil {
		r.check(false, "traced serve: %v %v", perr, terr)
		return r
	}
	run.account(r)
	r.setTelemetry(tr)
	r.setRuntime(window)

	snap := tr.reg.Snapshot()
	enq := snap.Histograms["server.enqueue.wait"]
	lat := newLedger()
	lat.span("latency", 0, 0, lat.origin, lat.origin.Add(run.latSum))
	lat.add("gen.queue", "latency", int64(run.sendWait))
	lat.add("http.roundtrip", "latency", int64(run.roundtrip))
	lat.add("server.enqueue_wait", "http.roundtrip", run.enqAtEnd-run.enqAtStart)
	a := tr.agg
	lat.add("platform.request", "http.roundtrip", a.reqWall-a.setupReq)
	for st := trace.StagePreflight; st < trace.StagePlan; st++ {
		lat.add("platform.stage."+st.String(), "platform.request", a.stages[st])
	}
	self := lat.report(r, run.latSum, "latency")
	r.set(r.layer, "server.http_self_s", float64(self["http.roundtrip"])/1e9, "s", 1)
	r.set(r.layer, "server.envelopes_per_drain",
		ratio(float64(snap.Counters["server.applied"]), float64(snap.Counters["server.drains"])), "count", int(snap.Counters["server.drains"]))
	r.set(r.layer, "server.enqueue_wait_ms_p99", float64(enq.Quantile(0.99))/1e6, "ms", int(enq.Count))
	r.set(r.layer, "server.queue_depth_max", float64(run.queueMax), "count", 1)
	r.set(r.layer, "server.overloaded", float64(snap.Counters["server.overloaded"]), "count", 1)
	r.set(r.layer, "server.ws_dropped", float64(snap.Counters["server.ws.dropped"]), "count", 1)
	r.set(r.layer, "wire.parse_ns", run.parseNs, "ns", 20000)
	r.set(r.layer, "server.replay_us_per_env", float64(run.replayTime.Microseconds())/float64(max(run.replayed, 1)), "us", run.replayed)
	r.set(r.layer, "serve.req_p50_ms_hi", run.hi.lat.p50(), "ms", run.hi.batches)
	r.set(r.layer, "serve.req_p99_ms_hi", run.hi.lat.pct(99, run.hi.batches), "ms", run.hi.batches)
	r.set(r.layer, "serve.deliver_p99_ms_hi", run.hi.delivered.pct(99, run.hi.batches), "ms", run.hi.batches)
	lag, _ := run.hi.genLag.tail()
	r.set(r.layer, "gen.lag_ms_p99", lag, "ms", len(run.hi.genLag))
	// Tracing overhead: CPU per envelope in the hi phase, traced over
	// untraced (the phases are fixed-length, so wall time cannot show it).
	r.set(r.layer, "trace.overhead_ratio",
		(run.hi.cpu.Seconds()/float64(run.hi.sent))/(base.hi.cpu.Seconds()/float64(base.hi.sent)), "ratio", 1)
	if err := lat.writeSpans("serve-latency", o.seed); err != nil {
		r.check(false, "write spans: %v", err)
	}
	if err := led.writeSpans("serve", o.seed); err != nil {
		r.check(false, "write spans: %v", err)
	}
	r.completeLayers()
	return r
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
