package measure

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"marlin/internal/sim"
)

func TestRateSampler(t *testing.T) {
	eng := sim.NewEngine()
	var counter uint64
	s := NewRateSampler(eng, sim.Millisecond)
	s.Track("port0", func() uint64 { return counter })
	s.Start()
	// Feed 1.25 MB per ms = 10 Gbps.
	tick := sim.NewTicker(eng, sim.Millisecond/10, func() { counter += 125_000 })
	tick.Start()
	eng.Run(sim.Time(10 * sim.Millisecond))
	series := s.Series("port0")
	if len(series) < 8 {
		t.Fatalf("samples = %d", len(series))
	}
	for _, p := range series[1:] {
		if p.V < 9.5 || p.V > 10.5 {
			t.Fatalf("sample %v Gbps, want ~10", p.V)
		}
	}
	if s.Series("missing") != nil {
		t.Fatal("unknown name returned a series")
	}
	if len(s.Names()) != 1 || s.Names()[0] != "port0" {
		t.Fatalf("names = %v", s.Names())
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{{10, 1}, {20, 3}, {30, 5}}
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 5 {
		t.Fatalf("max = %v", s.Max())
	}
	if got := s.After(15); len(got) != 2 || got[0].V != 3 {
		t.Fatalf("After = %v", got)
	}
	if (Series{}).Mean() != 0 {
		t.Fatal("empty mean")
	}
}

func TestCDFPercentiles(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1) // 1..100
	}
	c := NewCDF(samples)
	cases := []struct{ p, want float64 }{
		{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.01, 1},
	}
	for _, cse := range cases {
		if got := c.Percentile(cse.p); got != cse.want {
			t.Errorf("P%v = %v, want %v", cse.p, got, cse.want)
		}
	}
	if got := c.At(50); got != 0.5 {
		t.Errorf("At(50) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(1000); got != 1 {
		t.Errorf("At(1000) = %v", got)
	}
	if len(c.Table([]float64{0.5, 0.99})) != 2 {
		t.Error("Table rows")
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.Percentile(0.5)) || !math.IsNaN(c.At(1)) {
		t.Fatal("empty CDF must return NaN")
	}
}

func TestQuickCDFMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		clean := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) < 2 {
			return true
		}
		c := NewCDF(clean)
		prev := math.Inf(-1)
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			v := c.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{10, 10, 10, 10}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %v", got)
	}
	got := JainIndex([]float64{1, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single hog over 4: %v, want 0.25", got)
	}
	if !math.IsNaN(JainIndex(nil)) {
		t.Fatal("empty JainIndex must be NaN")
	}
}

func TestStepTraceValueAt(t *testing.T) {
	tr := StepTrace{{10, 1}, {20, 2}, {30, 3}}
	cases := []struct {
		t    sim.Time
		want float64
	}{{5, 0}, {10, 1}, {15, 1}, {20, 2}, {35, 3}}
	for _, c := range cases {
		if got := tr.ValueAt(c.t); got != c.want {
			t.Errorf("ValueAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestCompareStepTracesIdentical(t *testing.T) {
	tr := StepTrace{{0, 5}, {100, 10}, {200, 7}}
	res := CompareStepTraces(tr, tr, 0, 300, 10)
	if res.RMSE != 0 || res.MaxAbs != 0 {
		t.Fatalf("self-compare nonzero: %+v", res)
	}
	if res.Samples != 31 {
		t.Fatalf("samples = %d", res.Samples)
	}
}

func TestCompareStepTracesOffset(t *testing.T) {
	a := StepTrace{{0, 10}}
	b := StepTrace{{0, 12}}
	res := CompareStepTraces(a, b, 0, 100, 10)
	if math.Abs(res.RMSE-2) > 1e-9 || math.Abs(res.MaxAbs-2) > 1e-9 {
		t.Fatalf("res = %+v, want RMSE=MaxAbs=2", res)
	}
	if math.Abs(res.NormRMSE()-2.0/12) > 1e-9 {
		t.Fatalf("NormRMSE = %v", res.NormRMSE())
	}
}

func TestProcessorSharingSingleFlow(t *testing.T) {
	// One 1 Gb flow on a 1 Gbps link: exactly 1 second.
	fcts := ProcessorSharingFCT([]Arrival{{At: 0, Bits: 1e9}}, sim.Gbps)
	if got := fcts[0]; got != sim.Duration(sim.Second) {
		t.Fatalf("fct = %v, want 1s", got)
	}
}

func TestProcessorSharingTwoEqualFlows(t *testing.T) {
	// Two equal flows arriving together share the link: both take 2x.
	fcts := ProcessorSharingFCT([]Arrival{
		{At: 0, Bits: 1e9}, {At: 0, Bits: 1e9},
	}, sim.Gbps)
	for i, fct := range fcts {
		if fct != sim.Duration(2*sim.Second) {
			t.Fatalf("fct[%d] = %v, want 2s", i, fct)
		}
	}
}

func TestProcessorSharingStaggered(t *testing.T) {
	// Flow A (2 Gb) at t=0; flow B (0.5 Gb) at t=1s on a 1 Gbps link.
	// A runs alone 1s (1 Gb left), shares 1s (0.5 Gb each: B done at 2s,
	// fct 1s), then A finishes its last 0.5 Gb alone at 2.5s (fct 2.5s).
	fcts := ProcessorSharingFCT([]Arrival{
		{At: 0, Bits: 2e9},
		{At: sim.Time(sim.Second), Bits: 0.5e9},
	}, sim.Gbps)
	if got := fcts[0].Seconds(); math.Abs(got-2.5) > 1e-6 {
		t.Fatalf("fct[0] = %vs, want 2.5", got)
	}
	if got := fcts[1].Seconds(); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("fct[1] = %vs, want 1.0", got)
	}
}

func TestProcessorSharingUnsortedInput(t *testing.T) {
	fcts := ProcessorSharingFCT([]Arrival{
		{At: sim.Time(sim.Second), Bits: 0.5e9},
		{At: 0, Bits: 2e9},
	}, sim.Gbps)
	if math.Abs(fcts[1].Seconds()-2.5) > 1e-6 || math.Abs(fcts[0].Seconds()-1.0) > 1e-6 {
		t.Fatalf("unsorted input broke alignment: %v", fcts)
	}
}

func TestQuickProcessorSharingConservation(t *testing.T) {
	// Total service time >= sum(bits)/capacity; every FCT >= its own
	// transmission time.
	f := func(sizes []uint32) bool {
		if len(sizes) == 0 || len(sizes) > 50 {
			return true
		}
		arr := make([]Arrival, len(sizes))
		var total float64
		for i, s := range sizes {
			bits := float64(s%1000+1) * 1e6
			arr[i] = Arrival{At: sim.Time(i) * sim.Time(sim.Millisecond), Bits: bits}
			total += bits
		}
		fcts := ProcessorSharingFCT(arr, sim.Gbps)
		var maxEnd float64
		for i, fct := range fcts {
			solo := arr[i].Bits / 1e9 // seconds at full capacity
			if fct.Seconds() < solo-1e-9 {
				return false
			}
			end := float64(arr[i].At)/1e12 + fct.Seconds()
			if end > maxEnd {
				maxEnd = end
			}
		}
		firstArr := float64(arr[0].At) / 1e12
		return maxEnd >= firstArr+total/1e9-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFCTRecorder(t *testing.T) {
	var r FCTRecorder
	r.Add(FCTRecord{Flow: 1, SizePkts: 10, FCT: sim.Micros(100)})
	r.Add(FCTRecord{Flow: 2, SizePkts: 20, FCT: sim.Micros(200)})
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	us := r.FCTs()
	if us[0] != 100 || us[1] != 200 {
		t.Fatalf("fcts = %v", us)
	}
}

func TestHistogramBinsAndRender(t *testing.T) {
	h := NewHistogram("us")
	h.AddAll([]float64{1, 1.5, 1.2, 3, 3.9, 100, 0})
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); m < 15.7 || m > 15.9 {
		t.Fatalf("mean = %v", m)
	}
	// Buckets in ascending order, bars scaled to the fullest one. Render
	// walks a map, so it is drawn repeatedly: each call must be the same.
	want := "" +
		"          -<=0        1      ######\n" +
		"         1-2          3      ####################\n" +
		"         2-4          2      #############\n" +
		"        64-128        1      ######\n" +
		"n=7 mean=15.8 min=0 max=100 us\n"
	for range 20 {
		if out := h.Render(20); out != want {
			t.Fatalf("Render(20) =\n%s\nwant\n%s", out, want)
		}
	}
}

// TestHistogramUnderflowBucket is a regression test: non-positive samples
// used to be folded into bucket 0, colliding with the [1,2) bucket, so a
// zero sample inflated the 1-2 row.
func TestHistogramUnderflowBucket(t *testing.T) {
	h := NewHistogram("us")
	h.AddAll([]float64{0, -3, 1.5})
	if h.Underflow() != 2 {
		t.Fatalf("underflow = %d, want 2", h.Underflow())
	}
	out := h.Render(20)
	if !strings.Contains(out, "<=0") {
		t.Errorf("render missing underflow row:\n%s", out)
	}
	// The [1,2) bucket must hold exactly the one positive sample, not the
	// non-positive ones.
	if h.buckets[0] != 1 {
		t.Fatalf("bucket[0] = %d, want 1 (only the 1.5 sample)", h.buckets[0])
	}
}

// TestHistogramMinMaxFromFirstSample is a regression test: max used to
// start at 0, so all-negative (and generally all-sub-zero) sample sets
// reported max=0, and min relied on a +Inf sentinel.
func TestHistogramMinMaxFromFirstSample(t *testing.T) {
	h := NewHistogram("us")
	h.AddAll([]float64{-5, -2})
	if h.Min() != -5 || h.Max() != -2 {
		t.Fatalf("min/max = %v/%v, want -5/-2", h.Min(), h.Max())
	}
	if !strings.Contains(h.Render(10), "max=-2") {
		t.Errorf("render reports wrong max:\n%s", h.Render(10))
	}

	h2 := NewHistogram("us")
	h2.Add(0.25) // all-sub-1 positive set: max must be 0.25, not 0
	if h2.Min() != 0.25 || h2.Max() != 0.25 {
		t.Fatalf("min/max = %v/%v, want 0.25/0.25", h2.Min(), h2.Max())
	}
	if !math.IsNaN(NewHistogram("us").Min()) || !math.IsNaN(NewHistogram("us").Max()) {
		t.Fatal("empty histogram min/max not NaN")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("us")
	if !math.IsNaN(h.Mean()) {
		t.Fatal("empty mean not NaN")
	}
	if !strings.Contains(h.Render(10), "no samples") {
		t.Fatal("empty render")
	}
}

func TestMergeCDFs(t *testing.T) {
	merged := MergeCDFs(NewCDF([]float64{1, 3, 5}), NewCDF(nil), NewCDF([]float64{2, 4}))
	want := []float64{1, 2, 3, 4, 5}
	if !sort.Float64sAreSorted(merged.Samples()) {
		t.Fatalf("merged samples not sorted: %v", merged.Samples())
	}
	if got := merged.Samples(); len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("merged %v, want %v", got, want)
			}
		}
	}
	if got := merged.Percentile(1); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if MergeCDFs().Len() != 0 {
		t.Error("empty merge should yield empty CDF")
	}
	// Merging a CDF with itself doubles every sample.
	c := NewCDF([]float64{7, 7, 9})
	if got := MergeCDFs(c, c).Len(); got != 6 {
		t.Errorf("self-merge length = %d, want 6", got)
	}
}
