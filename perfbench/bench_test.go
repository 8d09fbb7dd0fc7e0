package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Fatalf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty = %v, want 0", got)
	}
	// 1..100: the p-th percentile of the integers is p itself.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, p := range []float64{1, 50, 90, 99, 100} {
		if got := percentile(hundred, p); got != p {
			t.Errorf("percentile(1..100, %v) = %v", p, got)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	if got := tailPercentile(100, 10, 90, 95, 99); got != 90 {
		t.Errorf("n=100: got p%v, want p90 (10 samples beyond)", got)
	}
	if got := tailPercentile(1000, 10, 90, 95, 99); got != 99 {
		t.Errorf("n=1000: got p%v, want p99", got)
	}
	if got := tailPercentile(50, 10, 90, 95, 99); got != 0 {
		t.Errorf("n=50: got p%v, want none", got)
	}
}

func TestLatencyPerPassOrPooled(t *testing.T) {
	pass := func(base float64, n int) *passResult {
		p := &passResult{}
		for i := 1; i <= n; i++ {
			p.latMS = append(p.latMS, base+float64(i))
		}
		return p
	}
	// 100 samples per pass: a pass alone has 50 beyond p50, so the median
	// of the per-pass medians is reported.
	ps := []*passResult{pass(0, 100), pass(1000, 100), pass(2000, 100)}
	if got := latency(ps, 50); got != 1050 {
		t.Errorf("p50 over passes = %v, want the middle pass's 1050", got)
	}
	// p99 leaves one sample beyond per pass: the samples are pooled.
	if got := latency(ps, 99); got != percentile(append(append(append([]float64(nil), ps[0].latMS...), ps[1].latMS...), ps[2].latMS...), 99) {
		t.Errorf("p99 = %v, want the pooled percentile", got)
	}
}

func TestCPUProbeCountsBusyWork(t *testing.T) {
	before := cpuTime()
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	used := cpuTime() - before
	if used < 20*time.Millisecond || x == 0 {
		t.Fatalf("a 50 ms busy loop used %v of CPU time", used)
	}
}

func TestRSSProbeSeesTouchedMemory(t *testing.T) {
	before := peakRSSMB()
	if before <= 0 {
		t.Fatalf("peak RSS %v MB", before)
	}
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	// The peak can only rise, and must now cover the 64 MiB just touched.
	after := peakRSSMB()
	if after < before || after < 64 {
		t.Fatalf("peak RSS %v MB -> %v MB after touching 64 MiB", before, after)
	}
	buf[len(buf)-1] = 1
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	root := tr.record("root", -1, 0, t0, 100)
	tr.record("child", root, 0, t0.Add(10), 30)
	tr.record("child", root, 0, t0.Add(30), 30) // overlaps the first
	tr.record("child", root, 0, t0.Add(90), 30) // runs past the root
	got := map[string]layerTime{}
	for _, lt := range tr.selfTimes() {
		got[lt.Name] = lt
	}
	if got["root"].Self != 100-50-10 || got["child"].Count != 3 || got["child"].Self != 90 {
		t.Fatalf("self times %+v", got)
	}
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Fatalf("disabled tracer returned span %d", id)
	}
}

// TestWorkloadSmoke runs every workload at smoke size, one untraced and
// one traced pass, with all its output checks on.
func TestWorkloadSmoke(t *testing.T) {
	for _, name := range []string{"fleet-round", "serve-mixed", "ddi-ingest-query"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var passes []*passResult
			for _, tr := range []*tracer{nil, newTracer()} {
				pr, err := w.pass(tr)
				if err != nil {
					t.Fatal(err)
				}
				if pr.attempted == 0 || pr.failed != 0 || len(pr.latMS) != pr.attempted {
					t.Fatalf("pass: attempted %d, failed %d, %d latencies", pr.attempted, pr.failed, len(pr.latMS))
				}
				if pr.setup <= 0 || pr.wall <= 0 || pr.work <= 0 {
					t.Fatalf("pass: setup %v, wall %v, work %d", pr.setup, pr.wall, pr.work)
				}
				passes = append(passes, pr)
			}
			failed, ok, err := w.finish()
			if err != nil || failed != 0 || !ok {
				t.Fatalf("finish: failed %d, ok %v, err %v", failed, ok, err)
			}
			m := endToEnd(passes, w.tail())
			for _, k := range []string{"setup_s", "throughput_per_s", "latency_ms.p50", "latency_ms.tail", "cpu_ms_per_op", "mem_peak_mb"} {
				if m[k].Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m[k].Value)
				}
			}
		})
	}
}
