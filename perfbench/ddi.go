package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ddi"
)

// ddi-ingest-query drives ddi.DiskStore directly. Set-up ingests a seeded
// history corpus, seals it, and closes and reopens the store so the
// timed phase starts cold. One operation is one tick: a batch of new
// records (one collection interval of a fleet), a burst of late records
// at a fixed cadence, a seal at a fixed cadence, then a fixed set of
// window queries over the memtable and over the sealed history.

const (
	ddiSpacing  = time.Millisecond // corpus: one record per ms of virtual time
	ddiInterval = time.Second      // one tick covers one collection interval
	ddiHeadGap  = time.Minute      // live records start this far past the corpus
	// Every ddiSealEvery ticks the tick seals the memtable; ddiBurstAt
	// ticks into each seal cycle a burst of late records arrives, so the
	// last quarter of every cycle queries an out-of-order memtable. The
	// burst is 1 in 20 of the rows a seal cycle puts (ddiLateShare).
	ddiSealEvery = 32
	ddiBurstAt   = 24
	ddiLateShare = 20
	// Late records land 10–30 s behind the head: a vehicle's buffer after
	// a connectivity gap.
	ddiLateMin = 10 * time.Second
	ddiLateMax = 30 * time.Second
	// Recent windows: an aggregate over the last 30 s and a streamed scan
	// over the last 3 s. History windows: 2 s and 10 s scans, a 10 min
	// aggregate.
	ddiRecentAgg  = 30 * time.Second
	ddiRecentScan = 3 * time.Second
	ddiNarrow     = 2 * time.Second
	ddiFiltered   = 10 * time.Second
	ddiWide       = 10 * time.Minute
	ddiRadius     = 300.0
	// ddiChunk is how many corpus records set-up renders at a time,
	// outside its timing, before putting them.
	ddiChunk = 16 << 10
)

var ddiSources = []ddi.Source{ddi.SourceOBD, ddi.SourceGPS, ddi.SourceWeather, ddi.SourceTraffic, ddi.SourceUser}

// rec is one generated input record; its payload is rendered from v and s.
type rec struct {
	at   time.Duration
	src  uint8
	x, y float64
	v    uint16
	s    uint8
}

// appendRecord renders r as a ddi.Record whose payload is appended to
// buf, and returns the record and the grown buffer. The payload's
// capacity ends at its length, so later appends never overwrite it.
func (r *rec) appendRecord(buf []byte) (ddi.Record, []byte) {
	n := len(buf)
	buf = fmt.Appendf(buf, `{"v":%d,"s":%d}`, r.v, r.s)
	return ddi.Record{
		Source: ddiSources[r.src], At: r.at, X: r.x, Y: r.y,
		Payload: buf[n:len(buf):len(buf)],
	}, buf
}

func genRec(rng *rand.Rand, at time.Duration) rec {
	return rec{
		at: at, src: uint8(rng.IntN(len(ddiSources))),
		x: rng.Float64()*2000 - 1000, y: rng.Float64()*2000 - 1000,
		v: uint16(rng.IntN(10000)), s: uint8(rng.IntN(100)),
	}
}

type queryKind int

const (
	qRecentAgg queryKind = iota
	qRecentScan
	qNarrow
	qSource
	qSpatial
	qWideAgg
)

func (k queryKind) recent() bool { return k == qRecentAgg || k == qRecentScan }
func (k queryKind) agg() bool    { return k == qRecentAgg || k == qWideAgg }

// answer is one query's observable result: count, min and max of the X
// column for aggregates, count and an order-sensitive checksum over the
// streamed records for scans.
type answer struct {
	count    int
	min, max float64
	sum      uint64
}

func newAnswer(k queryKind) answer {
	if k.agg() {
		return answer{}
	}
	return answer{sum: hashSeed}
}

// add folds one matching record into the answer.
func (a *answer) add(k queryKind, r *ddi.Record) {
	a.count++
	switch {
	case !k.agg():
		a.sum = hashRecord(a.sum, r)
	case a.count == 1:
		a.min, a.max = r.X, r.X
	default:
		a.min, a.max = math.Min(a.min, r.X), math.Max(a.max, r.X)
	}
}

type ddiQuery struct {
	kind queryKind
	q    ddi.Query
}

// ddiTick holds one tick's inputs, rendered before any pass so the timed
// phase only puts them.
type ddiTick struct {
	batch   []ddi.Record
	late    []ddi.Record
	seal    bool
	queries []ddiQuery
	want    []answer
}

type ddiWorkload struct {
	dir    string
	seed   int64
	n      int       // corpus records
	warm   []ddiTick // puts and recent queries only: history stays cold
	ticks  []ddiTick
	total  int // records in the store after the last tick
	passNo int
}

func newDDIWorkload(seed int64, small bool, dir string) *ddiWorkload {
	n, warm, ticks, batch := 2_000_000, 8, 128, 1000
	if small {
		n, warm, ticks, batch = 60_000, 2, 64, 200
	}
	// 1 in ddiLateShare of a seal cycle's rows arrive late.
	burst := ddiSealEvery * batch / (ddiLateShare - 1)
	rng := rand.New(rand.NewPCG(uint64(seed), 0xDD2))
	w := &ddiWorkload{dir: dir, seed: seed, n: n}
	span := time.Duration(n) * ddiSpacing
	wide := min(ddiWide, span/3)
	head := span + ddiHeadGap
	slots := [4][]int{rng.Perm(ticks), rng.Perm(ticks), rng.Perm(ticks), rng.Perm(ticks)}
	render := func(rs []rec) []ddi.Record {
		out := make([]ddi.Record, len(rs))
		for i := range rs {
			out[i], _ = rs[i].appendRecord(nil)
		}
		return out
	}
	mk := func(k int, history bool) ddiTick {
		var t ddiTick
		batchRecs := make([]rec, batch)
		for i := range batchRecs {
			batchRecs[i] = genRec(rng, head+time.Duration(rng.Int64N(int64(ddiInterval))))
		}
		sort.Slice(batchRecs, func(i, j int) bool { return batchRecs[i].at < batchRecs[j].at })
		t.batch = render(batchRecs)
		if history {
			if k%ddiSealEvery == ddiBurstAt {
				late := make([]rec, burst)
				for i := range late {
					back := ddiLateMin + time.Duration(rng.Int64N(int64(ddiLateMax-ddiLateMin)))
					late[i] = genRec(rng, head-back)
				}
				t.late = render(late)
			}
			t.seal = k%ddiSealEvery == ddiSealEvery-1
		}
		end := head + ddiInterval - 1
		t.queries = append(t.queries,
			ddiQuery{qRecentAgg, ddi.Query{From: end - ddiRecentAgg, To: end}},
			ddiQuery{qRecentScan, ddi.Query{From: end - ddiRecentScan, To: end}})
		if history {
			// Stratified positions: over a pass, each history query kind
			// visits every 1/ticks slice of the corpus once, in a seeded
			// order, so every pass decodes about the same segments.
			at := func(kind int, width time.Duration) time.Duration {
				slot := float64(slots[kind][k]) + rng.Float64()
				return time.Duration(slot/float64(ticks)*float64((span-width)/ddiSpacing)) * ddiSpacing
			}
			from := at(0, ddiNarrow)
			t.queries = append(t.queries, ddiQuery{qNarrow, ddi.Query{From: from, To: from + ddiNarrow}})
			from = at(1, ddiFiltered)
			t.queries = append(t.queries, ddiQuery{qSource, ddi.Query{Source: ddiSources[rng.IntN(len(ddiSources))], From: from, To: from + ddiFiltered}})
			from = at(2, ddiFiltered)
			t.queries = append(t.queries, ddiQuery{qSpatial, ddi.Query{From: from, To: from + ddiFiltered,
				X: rng.Float64()*1400 - 700, Y: rng.Float64()*1400 - 700, Radius: ddiRadius}})
			from = at(3, wide)
			t.queries = append(t.queries, ddiQuery{qWideAgg, ddi.Query{From: from, To: from + wide}})
		}
		head += ddiInterval
		return t
	}
	for k := 0; k < warm; k++ {
		w.warm = append(w.warm, mk(k, false))
	}
	for k := 0; k < ticks; k++ {
		w.ticks = append(w.ticks, mk(k, true))
	}
	w.reference()
	return w
}

// eachCorpus regenerates the history corpus in order: record i lands at
// i ms. The corpus is not kept, so the benchmark's own memory does not
// sit beside the store's.
func (w *ddiWorkload) eachCorpus(fn func(i int, r *rec) error) error {
	rng := rand.New(rand.NewPCG(uint64(w.seed), 0xDD1))
	for i := 0; i < w.n; i++ {
		r := genRec(rng, time.Duration(i)*ddiSpacing)
		if err := fn(i, &r); err != nil {
			return err
		}
	}
	return nil
}

// hashRecord folds one record into an order-sensitive checksum. It runs
// inside the timed ticks, so it mixes a word at a time: 27 ns per record,
// where a byte-at-a-time FNV-1a took 92 ns, about a third of a tick's p50.
func hashRecord(h uint64, r *ddi.Record) uint64 {
	h = mix(h, r.ID)
	h = mix(h, uint64(r.At))
	h = mix(h, math.Float64bits(r.X))
	h = mix(h, math.Float64bits(r.Y))
	h = mixBytes(h, []byte(r.Source))
	return mixBytes(h, r.Payload)
}

func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// mixBytes folds b's length, then b eight bytes at a time.
func mixBytes(h uint64, b []byte) uint64 {
	h = mix(h, uint64(len(b)))
	for ; len(b) >= 8; b = b[8:] {
		h = mix(h, binary.LittleEndian.Uint64(b))
	}
	var w uint64
	for i, c := range b {
		w |= uint64(c) << (8 * i)
	}
	return mix(h, w)
}

const hashSeed = 14695981039346656037

// matches mirrors ddi.Query's documented semantics on one record.
func matches(q ddi.Query, src ddi.Source, at time.Duration, x, y float64) bool {
	if q.Source != "" && src != q.Source {
		return false
	}
	if at < q.From || (q.To > 0 && at > q.To) {
		return false
	}
	if q.Radius > 0 {
		dx, dy := x-q.X, y-q.Y
		if dx*dx+dy*dy > q.Radius*q.Radius {
			return false
		}
	}
	return true
}

// reference computes every timed query's expected answer from the
// generated inputs alone: IDs are the put order (1, 2, ...), the corpus
// is already in (At, ID) order, and live matches are sorted here.
func (w *ddiWorkload) reference() {
	var live []ddi.Record
	nextID := uint64(w.n) + 1
	var tickStart []int
	add := func(rs []ddi.Record) {
		for _, r := range rs {
			r.ID = nextID
			live = append(live, r)
			nextID++
		}
	}
	for _, t := range w.warm {
		tickStart = append(tickStart, len(live))
		add(t.batch)
	}
	// History windows, answered below in one pass over the corpus.
	type window struct{ tick, qi int }
	var hist []window
	for k := range w.ticks {
		t := &w.ticks[k]
		tickStart = append(tickStart, len(live))
		add(t.batch)
		add(t.late)
		t.want = make([]answer, len(t.queries))
		for qi, dq := range t.queries {
			t.want[qi] = newAnswer(dq.kind)
			if !dq.kind.recent() {
				hist = append(hist, window{k, qi})
				continue
			}
			// Records put more than a few dozen ticks ago lie before
			// every recent window, late ones included.
			back := int((ddiLateMax+ddiRecentAgg)/ddiInterval) + 2
			var hits []ddi.Record
			for _, r := range live[tickStart[max(0, len(tickStart)-1-back)]:] {
				if matches(dq.q, r.Source, r.At, r.X, r.Y) {
					hits = append(hits, r)
				}
			}
			sort.Slice(hits, func(i, j int) bool {
				if hits[i].At != hits[j].At {
					return hits[i].At < hits[j].At
				}
				return hits[i].ID < hits[j].ID
			})
			for i := range hits {
				t.want[qi].add(dq.kind, &hits[i])
			}
		}
	}
	w.total = int(nextID - 1)

	// Sweep the corpus once in (At, ID) order, keeping the windows that
	// cover the current record active: record i has ID i+1.
	query := func(h window) ddiQuery { return w.ticks[h.tick].queries[h.qi] }
	sort.SliceStable(hist, func(i, j int) bool { return query(hist[i]).q.From < query(hist[j]).q.From })
	var active []window
	next := 0
	var buf []byte
	_ = w.eachCorpus(func(i int, r *rec) error { // the sweep cannot fail
		for next < len(hist) && query(hist[next]).q.From <= r.at {
			active = append(active, hist[next])
			next++
		}
		var rr ddi.Record
		rendered := false
		kept := active[:0]
		for _, h := range active {
			dq := query(h)
			if dq.q.To < r.at {
				continue
			}
			kept = append(kept, h)
			if !matches(dq.q, ddiSources[r.src], r.at, r.x, r.y) {
				continue
			}
			if !rendered {
				rr, buf = r.appendRecord(buf[:0])
				rr.ID = uint64(i + 1)
				rendered = true
			}
			w.ticks[h.tick].want[h.qi].add(dq.kind, &rr)
		}
		active = kept
		return nil
	})
}

func (w *ddiWorkload) tail() float64 { return 90 }

// runQuery executes one query and returns its answer and plan stats.
func runQuery(s *ddi.DiskStore, dq ddiQuery) (answer, ddi.PlanStats, error) {
	if dq.kind.agg() {
		agg, st, err := s.Aggregate(dq.q, ddi.ColX)
		if err != nil {
			return answer{}, st, err
		}
		return answer{count: agg.Count, min: agg.Min, max: agg.Max}, st, nil
	}
	a := newAnswer(dq.kind)
	it := s.Scan(dq.q)
	for it.Next() {
		a.add(dq.kind, it.Record())
	}
	return a, it.Stats(), it.Err()
}

// touches reports whether a query's plan reads segment zm's columns, as
// far as its zone map tells: an aggregate answers a segment its window
// covers from the footer alone.
func touches(zm *ddi.ZoneMap, dq ddiQuery) bool {
	q := dq.q
	if !zm.OverlapsWindow(q.From, q.To) ||
		(q.Source != "" && !zm.HasSource(q.Source)) ||
		(q.Radius > 0 && !zm.IntersectsCircle(q.X, q.Y, q.Radius)) {
		return false
	}
	return !(dq.kind.agg() && q.Source == "" && q.Radius == 0 && zm.CoveredByWindow(q.From, q.To))
}

func (w *ddiWorkload) pass(tr *tracer) (*passResult, error) {
	pr := &passResult{layers: map[string]float64{}}
	dir := filepath.Join(w.dir, fmt.Sprintf("ddi-%d", w.passNo))
	w.passNo++
	defer os.RemoveAll(dir)

	// Set-up time leaves out rendering the corpus: each chunk is rendered
	// with the stopwatch stopped, then put with it running.
	var sw stopwatch
	sw.start()
	s, err := ddi.OpenDiskStore(dir)
	sw.stop()
	if err != nil {
		return nil, err
	}
	chunk := make([]ddi.Record, 0, ddiChunk)
	var payloads []byte
	putChunk := func() error {
		sw.start()
		defer sw.stop()
		for i := range chunk {
			if _, err := s.Put(chunk[i]); err != nil {
				return err
			}
		}
		chunk, payloads = chunk[:0], payloads[:0]
		return nil
	}
	err = w.eachCorpus(func(_ int, r *rec) error {
		var rr ddi.Record
		rr, payloads = r.appendRecord(payloads)
		if chunk = append(chunk, rr); len(chunk) == ddiChunk {
			return putChunk()
		}
		return nil
	})
	if err == nil {
		err = putChunk()
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	sw.start()
	if err := s.Seal(); err != nil {
		return nil, err
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if s, err = ddi.OpenDiskStore(dir); err != nil {
		return nil, err
	}
	defer func() { s.Close() }()
	openDur := time.Since(t0)
	sw.stop()
	pr.layers["ddi.bytes_per_record"] = float64(dirBytes(dir)) / float64(w.n)
	// Which history queries are the first to read one of the corpus
	// segments, decided from the zone maps before the timed phase.
	corpusSegs := s.Segments()
	touched := make([]bool, len(corpusSegs))
	firstTouch := make([][]bool, len(w.ticks))
	for k := range w.ticks {
		firstTouch[k] = make([]bool, len(w.ticks[k].queries))
		for qi, dq := range w.ticks[k].queries {
			for si := range corpusSegs {
				if !dq.kind.recent() && !touched[si] && touches(&corpusSegs[si], dq) {
					touched[si], firstTouch[k][qi] = true, true
				}
			}
		}
	}
	sw.start()
	for _, t := range w.warm {
		for i := range t.batch {
			if _, err := s.Put(t.batch[i]); err != nil {
				return nil, err
			}
		}
		for _, dq := range t.queries {
			if _, _, err := runQuery(s, dq); err != nil {
				return nil, err
			}
		}
	}
	sw.stop()
	pr.setup = sw.sum

	var putDur, sealDur time.Duration
	var puts, seals int
	var recentIn, recentLate, hist, first []float64
	var skip []float64
	var scanned, matched int
	got := make([][]answer, len(w.ticks))
	late := false
	ph := beginTimed()
	for k := range w.ticks {
		t := &w.ticks[k]
		tickStart := time.Now()
		root := tr.begin("ddi.tick", -1, k)
		id := tr.begin("ddi.put", root, k)
		t0 := time.Now()
		for _, rs := range [][]ddi.Record{t.batch, t.late} {
			for i := range rs {
				if _, err := s.Put(rs[i]); err != nil {
					return nil, err
				}
			}
		}
		putDur += time.Since(t0)
		tr.end(id)
		puts += len(t.batch) + len(t.late)
		late = late || len(t.late) > 0
		if t.seal {
			id := tr.begin("ddi.seal", root, k)
			t0 := time.Now()
			if err := s.Seal(); err != nil {
				return nil, err
			}
			sealDur += time.Since(t0)
			tr.end(id)
			seals++
			late = false
		}
		got[k] = make([]answer, len(t.queries))
		for qi, dq := range t.queries {
			name := "ddi.history_query"
			if dq.kind.recent() {
				name = "ddi.recent_query"
			}
			id := tr.begin(name, root, k)
			t0 := time.Now()
			a, st, err := runQuery(s, dq)
			d := ms(time.Since(t0))
			tr.end(id)
			if err != nil {
				return nil, err
			}
			got[k][qi] = a
			switch {
			case dq.kind.recent() && late:
				recentLate = append(recentLate, d)
			case dq.kind.recent():
				recentIn = append(recentIn, d)
			case firstTouch[k][qi]:
				first = append(first, d)
			default:
				hist = append(hist, d)
			}
			if !dq.kind.recent() {
				skip = append(skip, st.SkipRatio())
				if !dq.kind.agg() {
					scanned += st.RowsScanned
					matched += a.count
				}
			}
		}
		tr.end(root)
		pr.latMS = append(pr.latMS, ms(time.Since(tickStart)))
	}
	ph.end(pr)

	// Checks, outside the timed phase.
	pr.attempted, pr.work = len(w.ticks), len(w.ticks)
	for k := range w.ticks {
		for qi := range got[k] {
			if got[k][qi] != w.ticks[k].want[qi] {
				pr.failed++
				break
			}
		}
	}
	if err := w.fullScanCheck(s); err != nil {
		return nil, err
	}

	pr.layers["ddi.put_ns_per_rec"] = float64(putDur) / float64(puts)
	pr.layers["ddi.seal_ms"] = ms(sealDur) / float64(max(seals, 1))
	pr.layers["ddi.open_ms"] = ms(openDur)
	pr.layers["ddi.recent_inorder_ms"] = mean(recentIn)
	pr.layers["ddi.recent_late_ms"] = mean(recentLate)
	pr.layers["ddi.history_query_ms"] = mean(hist)
	pr.layers["ddi.first_touch_ms"] = mean(first)
	pr.layers["ddi.skip_ratio"] = mean(skip)
	pr.layers["ddi.rows_scanned_per_match"] = float64(scanned) / float64(max(matched, 1))
	if tr != nil {
		if s, err = w.planAndDecodeProbe(tr, s, dir, pr); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// fullScanCheck requires a full scan to stream every record ever put,
// exactly once, in (At, ID) order.
func (w *ddiWorkload) fullScanCheck(s *ddi.DiskStore) error {
	it := s.Scan(ddi.Query{})
	n := 0
	var idSum uint64
	var lastAt time.Duration = -1
	var lastID uint64
	for it.Next() {
		r := it.Record()
		if r.At < lastAt || (r.At == lastAt && r.ID <= lastID) {
			return fmt.Errorf("full scan out of (At, ID) order at record %d", r.ID)
		}
		lastAt, lastID = r.At, r.ID
		idSum += r.ID
		n++
	}
	if err := it.Err(); err != nil {
		return err
	}
	want := uint64(w.total) * uint64(w.total+1) / 2
	if n != w.total || idSum != want || s.Count() != w.total {
		return fmt.Errorf("full scan holds %d records (count %d), want %d", n, s.Count(), w.total)
	}
	return nil
}

// planAndDecodeProbe times Explain per query on a sealed store, then
// reopens the store and times a cold full scan (every segment decoded on
// first touch) against a warm one. It returns the reopened store.
func (w *ddiWorkload) planAndDecodeProbe(tr *tracer, s *ddi.DiskStore, dir string, pr *passResult) (*ddi.DiskStore, error) {
	if err := s.Seal(); err != nil {
		return s, err
	}
	var plan []float64
	for k := range w.ticks {
		for _, dq := range w.ticks[k].queries {
			id := tr.begin("ddi.explain", -1, k)
			t0 := time.Now()
			if _, err := s.Explain(dq.q); err != nil {
				return s, err
			}
			plan = append(plan, us(time.Since(t0)))
			tr.end(id)
		}
	}
	pr.layers["ddi.plan_us"] = mean(plan)
	if err := s.Close(); err != nil {
		return s, err
	}
	reopened, err := ddi.OpenDiskStore(dir)
	if err != nil {
		return s, err // s is closed: closing it again is a no-op
	}
	s = reopened
	scan := func(name string) (time.Duration, error) {
		id := tr.begin(name, -1, 0)
		defer tr.end(id)
		t0 := time.Now()
		it := s.Scan(ddi.Query{})
		for it.Next() {
		}
		return time.Since(t0), it.Err()
	}
	cold, err := scan("ddi.scan_cold")
	if err != nil {
		return s, err
	}
	warm, err := scan("ddi.scan_warm")
	if err != nil {
		return s, err
	}
	pr.layers["ddi.decode_ms"] = ms(cold - warm)
	return s, nil
}

func (w *ddiWorkload) finish() (int, bool, error) { return 0, true, nil }

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
