package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ddi"
	"repro/internal/edgeos"
	"repro/internal/tasks"
)

// serve-mixed: an in-process core.Platform serves its libvdap API over
// loopback TCP to two closed-loop clients, each sending a fixed, seeded
// request sequence. Virtual time advances only from the generator: every
// serveAdvanceEvery requests, the client that drew that request index
// calls Platform.AdvanceTo. One operation is one request.

type reqClass int

const (
	clsSnapshot reqClass = iota // watermark-cached GET, gzip accepted
	clsBypass                   // cached endpoint with a query string
	clsWindow                   // DDI window aggregate, shared run lock
	clsUpload                   // exclusive run lock
	clsInvoke                   // exclusive run lock
	clsStream                   // one ndjson stream frame
)

const (
	serveClients = 2
	// serveAdvanceEvery is the advance cadence in requests: the E18 serve
	// run recorded in BENCH_SERVE.json served 10 309 requests over 105
	// advances of 100 ms, about 98 requests per advance.
	serveAdvanceEvery = 100
	serveStep         = 100 * time.Millisecond
	serveHistory      = 200 * time.Second // preloaded DDI history, 1 record per ms
	serveService      = "kidnapper-search"
	handlerReps       = 200 // in-process ServeHTTP calls per cached endpoint (traced)
)

// cachedPaths are the watermark-cached snapshot endpoints.
var cachedPaths = []string{"/api/v1/status", "/v1/metrics", "/v1/metrics/series", "/v1/events"}

// serveMix weights the request classes, out of 100. The snapshot
// endpoints and the stream keep libvdap.DefaultMix's weights (status 30,
// metrics 25, series 25, events 15, stream 5) scaled to 80 of 100. The
// four classes that mix has no entry for share the other 20 equally: no
// measurement in the repository says which of them is more frequent.
var serveMix = []struct {
	class  reqClass
	path   string // snapshot endpoint; other classes build their own
	weight int
}{
	{clsSnapshot, "/api/v1/status", 24},
	{clsSnapshot, "/v1/metrics", 20},
	{clsSnapshot, "/v1/metrics/series", 20},
	{clsSnapshot, "/v1/events", 12},
	{clsStream, "", 4},
	{clsBypass, "", 5},
	{clsWindow, "", 5},
	{clsUpload, "", 5},
	{clsInvoke, "", 5},
}

type request struct {
	class  reqClass
	method string
	path   string
	body   []byte
}

// response is what a client kept of one reply, checked after the timed
// phase.
type response struct {
	code int
	gzip bool
	body []byte
}

type serveWorkload struct {
	dir      string
	seed     int64
	preload  int
	warmup   [serveClients][]request
	requests [serveClients][]request
	passNo   int
}

func newServeWorkload(seed int64, small bool, dir string) *serveWorkload {
	w := &serveWorkload{dir: dir, seed: seed, preload: int(serveHistory / time.Millisecond)}
	warm, timed := 200, 2400
	if small {
		w.preload, warm, timed = 20_000, 40, 300
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5E2))
	for c := 0; c < serveClients; c++ {
		w.warmup[c] = w.genRequests(rng, warm, c, 0)
		w.requests[c] = w.genRequests(rng, timed, c, warm)
	}
	return w
}

// genRequests draws n requests for client c. Virtual time is a function
// of the global request index, so "recent" windows and since= watermarks
// are computed from the index the request will roughly have.
func (w *serveWorkload) genRequests(rng *rand.Rand, n, c, offset int) []request {
	history := time.Duration(w.preload) * time.Millisecond
	out := make([]request, n)
	for j := range out {
		g := serveClients*(offset+j) + c
		now := history + time.Duration(g/serveAdvanceEvery)*serveStep
		sec := func(d time.Duration) string { return fmt.Sprintf("%.3f", max(d, 0).Seconds()) }
		x := rng.IntN(100)
		k := 0
		for x >= serveMix[k].weight {
			x -= serveMix[k].weight
			k++
		}
		var r request
		switch m := serveMix[k]; m.class {
		case clsSnapshot:
			r = request{clsSnapshot, "GET", m.path, nil}
		case clsBypass:
			since := sec(now - 2*time.Second)
			paths := []string{"/api/v1/status?fresh=1", "/v1/metrics/series?since=" + since, "/v1/events?since=" + since}
			r = request{clsBypass, "GET", paths[rng.IntN(len(paths))], nil}
		case clsWindow:
			// Half over the last 5 s, half over the preloaded history.
			from, width := now-5*time.Second, 5*time.Second
			if rng.IntN(2) > 0 {
				width = min(time.Duration(5+rng.IntN(55))*time.Second, history/3)
				from = time.Duration(rng.Int64N(int64(history - width)))
			}
			col := []string{"at", "x", "y"}[rng.IntN(3)]
			r = request{clsWindow, "GET", fmt.Sprintf("/api/v1/data/window?from=%s&to=%s&column=%s", sec(from), sec(from+width), col), nil}
		case clsUpload:
			body := fmt.Sprintf(`{"source":"user","x":%.2f,"y":%.2f,"payload":"%s"}`,
				rng.Float64()*2000-1000, rng.Float64()*2000-1000, "eyJ2IjoxfQ==")
			r = request{clsUpload, "POST", "/api/v1/data/upload", []byte(body)}
		case clsInvoke:
			r = request{clsInvoke, "POST", "/api/v1/services/" + serveService + "/invoke", nil}
		case clsStream:
			r = request{clsStream, "GET", "/v1/stream?frames=1&poll=0.05&since=" + sec(now-time.Second), nil}
		}
		out[j] = r
	}
	return out
}

// tail is p95: on the shared 2-vCPU reference host a p99 of 48 requests
// per pass swung 2.6x between runs with the host's slow spells (2.8 to
// 7.2 ms), a p95 1.5x.
func (w *serveWorkload) tail() float64 { return 95 }

// countingConn counts every byte crossing a client connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// servePass is one pass's live system.
type servePass struct {
	p      *core.Platform
	ts     *httptest.Server
	client *http.Client
	tr     *http.Transport
	wire   atomic.Int64
	base   time.Duration // virtual time when load starts
	issued atomic.Int64  // global request index, drives AdvanceTo
	adv    []time.Duration
	advMu  sync.Mutex
	trc    *tracer
}

// setup builds the pass's platform and server; sw is running on entry
// and on return.
func (w *serveWorkload) setup(dir string, sw *stopwatch) (*servePass, error) {
	cfg := core.DefaultConfig(dir)
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	sp := &servePass{p: p}
	err = p.InstallService(&edgeos.Service{
		Name: serveService, Priority: edgeos.PriorityInteractive,
		Deadline: 2 * time.Second, DAG: tasks.ALPR(), Image: []byte("mobile-a3-v1"),
	})
	if err != nil {
		sp.close()
		return nil, err
	}
	// DDI history, in At order, as a vehicle that has been collecting.
	// Each chunk is rendered with the set-up stopwatch stopped.
	rng := rand.New(rand.NewPCG(uint64(w.seed), 0x5E1))
	store := p.DDI().Store()
	chunk := make([]ddi.Record, 0, ddiChunk)
	var payloads []byte
	for i := 0; i < w.preload; {
		sw.stop()
		chunk, payloads = chunk[:0], payloads[:0]
		for ; i < w.preload && len(chunk) < ddiChunk; i++ {
			r := genRec(rng, time.Duration(i)*time.Millisecond)
			var rr ddi.Record
			rr, payloads = r.appendRecord(payloads)
			chunk = append(chunk, rr)
		}
		sw.start()
		for j := range chunk {
			if _, err := store.Put(chunk[j]); err != nil {
				sp.close()
				return nil, err
			}
		}
	}
	sp.base = time.Duration(w.preload) * time.Millisecond
	if err := p.AdvanceTo(sp.base); err != nil {
		sp.close()
		return nil, err
	}
	if err := p.StartCollection(time.Second); err != nil {
		sp.close()
		return nil, err
	}
	if err := p.StartSampling(0); err != nil {
		sp.close()
		return nil, err
	}
	sp.ts = httptest.NewServer(p.API())
	sp.tr = &http.Transport{
		DisableCompression:  true,
		MaxIdleConnsPerHost: serveClients,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c, &sp.wire}, nil
		},
	}
	sp.client = &http.Client{Transport: sp.tr, Timeout: 30 * time.Second}
	return sp, nil
}

func (sp *servePass) close() {
	if sp.ts != nil {
		sp.tr.CloseIdleConnections()
		sp.ts.Close()
	}
	sp.p.Close()
}

// do sends one request and keeps the raw reply.
func (sp *servePass) do(r request) (response, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, sp.ts.URL+r.path, body)
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := sp.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{resp.StatusCode, resp.Header.Get("Content-Encoding") == "gzip", b}, err
}

// advance moves virtual time forward when request index g is due.
func (sp *servePass) advance(g int64, op int) error {
	if g == 0 || g%serveAdvanceEvery != 0 {
		return nil
	}
	id := sp.trc.begin("core.advance", -1, op)
	t0 := time.Now()
	err := sp.p.AdvanceTo(sp.base + time.Duration(g/serveAdvanceEvery)*serveStep)
	d := time.Since(t0)
	sp.trc.end(id)
	sp.advMu.Lock()
	sp.adv = append(sp.adv, d)
	sp.advMu.Unlock()
	return err
}

var classSpan = map[reqClass]string{
	clsSnapshot: "libvdap.snapshot", clsBypass: "libvdap.bypass", clsWindow: "libvdap.window",
	clsUpload: "libvdap.upload", clsInvoke: "libvdap.invoke", clsStream: "libvdap.stream",
}

// load runs both clients over their sequences and returns, per client,
// every reply and its latency.
func (sp *servePass) load(seqs [serveClients][]request) ([serveClients][]response, [serveClients][]time.Duration, error) {
	var resps [serveClients][]response
	var lats [serveClients][]time.Duration
	var errs [serveClients]error
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		resps[c] = make([]response, len(seqs[c]))
		lats[c] = make([]time.Duration, len(seqs[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j, r := range seqs[c] {
				g := sp.issued.Add(1) - 1
				if err := sp.advance(g, int(g)); err != nil {
					errs[c] = err
					return
				}
				id := sp.trc.begin(classSpan[r.class], -1, int(g))
				t0 := time.Now()
				resp, err := sp.do(r)
				lats[c][j] = time.Since(t0)
				sp.trc.end(id)
				if err != nil {
					resp.code = -1
				}
				resps[c][j] = resp
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return resps, lats, err
		}
	}
	return resps, lats, nil
}

func (w *serveWorkload) pass(trc *tracer) (*passResult, error) {
	pr := &passResult{layers: map[string]float64{}}
	dir := filepath.Join(w.dir, fmt.Sprintf("serve-%d", w.passNo))
	w.passNo++

	var sw stopwatch
	sw.start()
	sp, err := w.setup(dir, &sw)
	if err != nil {
		return nil, err
	}
	defer sp.close()
	wresps, _, err := sp.load(w.warmup)
	if err != nil {
		return nil, err
	}
	sw.stop()
	pr.setup = sw.sum
	acked := 0
	for c := range wresps {
		for j, r := range w.warmup[c] {
			if r.class == clsUpload && wresps[c][j].code == http.StatusOK {
				acked++
			}
		}
	}

	sp.trc = trc
	sp.adv = sp.adv[:0]
	cache0 := sp.p.Server().CacheStats()
	wire0 := sp.wire.Load()
	ph := beginTimed()
	resps, lats, err := sp.load(w.requests)
	ph.end(pr)
	if err != nil {
		return nil, err
	}
	wire := sp.wire.Load() - wire0
	cache1 := sp.p.Server().CacheStats()
	sp.trc = nil

	// Checks, outside the timed phase.
	byClass := map[reqClass][]float64{}
	seen := map[uint64]bool{}
	// Cached metrics/series/events replies repeat byte for byte within a
	// watermark: check each distinct body once. Status replies are all
	// checked, for their watermark.
	checkedSnap := map[string]bool{}
	for c := 0; c < serveClients; c++ {
		lastWM := -1.0
		for j, r := range w.requests[c] {
			resp := resps[c][j]
			pr.attempted++
			pr.latMS = append(pr.latMS, ms(lats[c][j]))
			byClass[r.class] = append(byClass[r.class], ms(lats[c][j]))
			var v checked
			ok, known := false, false
			memo := r.class == clsSnapshot && !strings.HasPrefix(r.path, "/api/v1/status") && resp.code == http.StatusOK
			if memo {
				ok, known = checkedSnap[string(resp.body)]
			}
			if !known {
				v, ok = checkResponse(r, resp)
			}
			if memo {
				checkedSnap[string(resp.body)] = ok
			}
			switch {
			case !ok:
				pr.failed++
			case r.class == clsUpload:
				if seen[v.id] {
					pr.failed++
				}
				seen[v.id] = true
				acked++
			case v.hasWatermark:
				if v.watermark < lastWM {
					pr.failed++
				}
				lastWM = v.watermark
			}
		}
	}
	pr.work = pr.attempted
	ok, err := sp.storeCheck(w.preload, acked)
	if err != nil {
		return nil, err
	}
	if !ok {
		pr.failed++ // the whole pass's bookkeeping is off: charge one op
	}
	hidentity, hgzip, loopback, same, err := sp.handlerProbe(trc)
	if err != nil {
		return nil, err
	}
	if !same {
		pr.failed++
	}

	var hits, total int64
	for k, c := range cache1 {
		h := c.Hits - cache0[k].Hits
		hits += h
		total += h + c.Misses - cache0[k].Misses
	}
	pr.layers["libvdap.snapshot_ms.p50"] = median(byClass[clsSnapshot])
	pr.layers["libvdap.bypass_ms.p50"] = median(byClass[clsBypass])
	pr.layers["libvdap.window_ms.p50"] = median(byClass[clsWindow])
	pr.layers["libvdap.write_ms.p50"] = median(append(append([]float64(nil), byClass[clsUpload]...), byClass[clsInvoke]...))
	var adv []float64
	for _, d := range sp.adv {
		adv = append(adv, ms(d))
	}
	pr.layers["core.advance_ms"] = mean(adv)
	pr.layers["libvdap.cache_hit_ratio"] = float64(hits) / float64(max(total, 1))
	pr.layers["libvdap.wire_bytes_per_req"] = float64(wire) / float64(pr.attempted)
	if trc != nil {
		pr.layers["libvdap.handler_gzip_us"] = hgzip
		pr.layers["libvdap.handler_identity_us"] = hidentity
		pr.layers["libvdap.loopback_us"] = loopback
		decideUS, topoUS, err := decideProbe(trc, sp.p.Offload(), sp.p.Engine().Now())
		if err != nil {
			return nil, err
		}
		pr.layers["offload.decide_us"] = decideUS
		pr.layers["tasks.topo_order_us"] = topoUS
	}
	return pr, nil
}

// checked is what checkResponse extracted from a reply.
type checked struct {
	id           uint64
	watermark    float64
	hasWatermark bool
}

// checkResponse requires a 200 whose body, gunzipped when gzip-encoded,
// parses as JSON (one object per line for the stream).
func checkResponse(r request, resp response) (checked, bool) {
	var v checked
	if resp.code != http.StatusOK {
		return v, false
	}
	body, err := decodeBody(resp)
	if err != nil {
		return v, false
	}
	if r.class == clsStream {
		lines := 0
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var frame map[string]any
			if json.Unmarshal(line, &frame) != nil {
				return v, false
			}
			lines++
		}
		return v, lines == 1
	}
	var obj map[string]any
	if json.Unmarshal(body, &obj) != nil {
		return v, false
	}
	switch {
	case r.class == clsUpload:
		id, ok := obj["id"].(float64)
		v.id = uint64(id)
		return v, ok && id > 0
	case r.class == clsWindow:
		_, ok := obj["aggregate"].(map[string]any)
		return v, ok
	case r.class == clsInvoke:
		return v, obj["service"] == serveService
	case strings.HasPrefix(r.path, "/api/v1/status"):
		v.watermark, v.hasWatermark = obj["virtualTime"].(float64)
		return v, v.hasWatermark
	}
	return v, true
}

func decodeBody(resp response) ([]byte, error) {
	if !resp.gzip {
		return resp.body, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(resp.body))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// storeCheck requires the DDI store to hold exactly the preloaded,
// collected, and acknowledged-upload records, and a whole-span window
// aggregate over the API to count the same.
func (sp *servePass) storeCheck(preload, uploads int) (bool, error) {
	collected := int(sp.p.Metrics().Counter("ddi.records_collected"))
	count := sp.p.DDI().Store().Count()
	resp, err := sp.do(request{clsWindow, "GET", "/api/v1/data/window?from=0&column=at", nil})
	if err != nil {
		return false, err
	}
	body, err := decodeBody(resp)
	if err != nil {
		return false, err
	}
	var win struct {
		Aggregate ddi.Agg `json:"aggregate"`
	}
	if err := json.Unmarshal(body, &win); err != nil {
		return false, err
	}
	return resp.code == http.StatusOK && count == preload+collected+uploads && win.Aggregate.Count == count, nil
}

// handlerProbe serves each cached endpoint in-process at a fixed
// watermark, with and without gzip, and requires the gunzipped body to
// equal the identity one byte for byte. When traced it also returns the
// mean ServeHTTP time per call of each encoding and, for the same gzip
// requests sent over loopback, the client-observed time beyond the
// handler's, all in microseconds.
func (sp *servePass) handlerProbe(trc *tracer) (identityUS, gzipUS, loopbackUS float64, same bool, err error) {
	h := sp.p.API()
	serve := func(path string, gz bool) (response, time.Duration) {
		req := httptest.NewRequest("GET", path, nil)
		if gz {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		return response{rec.Code, rec.Header().Get("Content-Encoding") == "gzip", rec.Body.Bytes()}, d
	}
	same = true
	for _, path := range cachedPaths {
		plain, _ := serve(path, false)
		zipped, _ := serve(path, true)
		zb, derr := decodeBody(zipped)
		if plain.code != http.StatusOK || zipped.code != http.StatusOK || derr != nil || !bytes.Equal(plain.body, zb) {
			same = false
		}
	}
	if trc == nil {
		return 0, 0, 0, same, nil
	}
	var tID, tGZ, tNet time.Duration
	for i := 0; i < handlerReps; i++ {
		for _, path := range cachedPaths {
			id := trc.begin("libvdap.handler_identity", -1, i)
			_, d := serve(path, false)
			trc.end(id)
			tID += d
			id = trc.begin("libvdap.handler_gzip", -1, i)
			_, d = serve(path, true)
			trc.end(id)
			tGZ += d
			id = trc.begin("libvdap.loopback_gzip", -1, i)
			t0 := time.Now()
			resp, err := sp.do(request{clsSnapshot, "GET", path, nil})
			tNet += time.Since(t0)
			trc.end(id)
			if err != nil || resp.code != http.StatusOK {
				return 0, 0, 0, false, fmt.Errorf("loopback probe %s: %v (status %d)", path, err, resp.code)
			}
		}
	}
	n := float64(handlerReps * len(cachedPaths))
	return us(tID) / n, us(tGZ) / n, us(tNet-tGZ) / n, same, nil
}

func (w *serveWorkload) finish() (int, bool, error) { return 0, true, nil }
