package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"phantom"
	"phantom/internal/core"
	"phantom/internal/kernel"
	"phantom/internal/pipeline"
	"phantom/internal/store"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// maxBootProbes caps the (arch, seed) pairs the construction probes
// boot, so their cost stays small next to the workload.
const maxBootProbes = 24

// bootPair is one machine the workload constructs.
type bootPair struct {
	arch string
	seed int64
}

// bootProbe times kernel.Boot and pipeline.New directly on the
// workload's (arch, seed) pairs: the median of each, and the bytes one
// kernel boot allocates (mean).
func bootProbe(pairs []bootPair, tr *Tracer) (bootMS, bootAllocMB, newMS float64, err error) {
	if len(pairs) > maxBootProbes {
		pairs = pairs[:maxBootProbes]
	}
	root := tr.Start("probe.boot", 0, "probe")
	defer tr.End(root)
	var boots, news []float64
	var alloc uint64
	var m0, m1 runtime.MemStats
	for _, p := range pairs {
		prof, err := uarch.ByName(p.arch)
		if err != nil {
			return 0, 0, 0, err
		}
		runtime.ReadMemStats(&m0)
		span := tr.Start("kernel.boot", root, "probe")
		t := time.Now()
		if _, err := kernel.Boot(prof, kernel.Config{Seed: p.seed, NoiseLevel: 1}); err != nil {
			return 0, 0, 0, err
		}
		boots = append(boots, ms(time.Since(t)))
		tr.End(span)
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc

		span = tr.Start("pipeline.new", root, "probe")
		t = time.Now()
		pipeline.New(prof, 1<<30, p.seed)
		news = append(news, ms(time.Since(t)))
		tr.End(span)
	}
	return median(boots), float64(alloc) / float64(len(pairs)) / (1 << 20), median(news), nil
}

// coreProbe replays exploit-chain's mds calls, one (arch, seed) boot
// each, through kernel.Boot and the four core attack functions of the
// Section 7 chain, with a span around each call. It stops a boot's
// chain where phantom.System.LeakKernelMemory does (a KASLR break with
// no candidate, a physical address not recovered), checks every step
// against the booted kernel's ground truth, and records in ck the line
// each mds call must then print. It returns each function's median
// span (ms) and the host time per simulated instruction inside those
// spans.
func coreProbe(boots []bootPair, ck *checker, reg *telemetry.Registry, tr *Tracer) (map[string]float64, float64, error) {
	instr := reg.Counter("pipeline_instructions")
	durs := map[string][]float64{}
	var spanNS, spanInstr float64
	root := tr.Start("probe.core", 0, "probe")
	defer tr.End(root)
	timed := func(name string, f func() error) error {
		i0 := instr.Value()
		span := tr.Start(name, root, "probe")
		t := time.Now()
		err := f()
		d := time.Since(t)
		tr.End(span)
		durs[name] = append(durs[name], ms(d))
		spanNS += float64(d)
		spanInstr += float64(instr.Value() - i0)
		return err
	}
	const hugeVA = uint64(0x7f5000000000)
	for _, b := range boots {
		prof, err := uarch.ByName(b.arch)
		if err != nil {
			return nil, 0, err
		}
		k, err := kernel.Boot(prof, kernel.Config{Seed: b.seed, NoiseLevel: 1})
		if err != nil {
			return nil, 0, err
		}
		what := fmt.Sprintf("chain %s seed %d", b.arch, b.seed)
		want := phantom.MDSReport{Arch: phantom.Microarch(b.arch), Runs: 1}
		ck.chains[b] = &want
		var img, pm, pa *core.KASLRResult
		var reload uint64
		if err := timed("core.image_kaslr", func() (err error) {
			img, err = core.BreakImageKASLR(k, core.ImageKASLRConfig{})
			return err
		}); err != nil {
			return nil, 0, err
		}
		ck.guess(what+" image base", img, k.ImageBase)
		if err := timed("core.physmap_kaslr", func() (err error) {
			pm, err = core.BreakPhysmapKASLR(k, core.PhysmapKASLRConfig{ImageBase: img.Guess})
			return err
		}); err != nil {
			return nil, 0, err
		}
		ck.guess(what+" physmap base", pm, k.PhysmapBase)
		if img.Guess == 0 || pm.Guess == 0 {
			continue // a break found no candidate on this boot: the chain stops here
		}
		hugePhys, err := k.AllocUserHuge(hugeVA)
		if err != nil {
			return nil, 0, err
		}
		if err := timed("core.physaddr", func() (err error) {
			pa, reload, err = core.FindPhysAddr(k, core.PhysAddrConfig{ImageBase: img.Guess, PhysmapBase: pm.Guess, HugeVA: hugeVA})
			return err
		}); err != nil {
			return nil, 0, err
		}
		ck.guess(what+" page physical address", pa, hugePhys)
		if !pa.Correct {
			continue
		}
		var leak *core.MDSLeakResult
		if err := timed("core.mds_leak", func() (err error) {
			leak, err = core.LeakKernelMemory(k, k.SecretVA, core.MDSLeakConfig{
				ImageBase: img.Guess, PhysmapBase: pm.Guess, ReloadPhys: reload, HugeVA: hugeVA, Bytes: mdsBytes,
			})
			return err
		}); err != nil {
			return nil, 0, err
		}
		ck.leak(what, leak.Leaked, leak.Accuracy.Correct, k.Secret)
		if acc := leak.Accuracy.Percent(); acc > 0 {
			want.SignalRuns, want.AccuracyPct, want.MedianBytesSec = 1, acc, leak.BytesPerSecond
		}
	}
	out := make(map[string]float64, len(durs))
	for name, d := range durs {
		out[name] = median(d)
	}
	return out, ratio(spanNS, spanInstr), nil
}

// storeProbe times store.Put and store.Get directly on records, in a
// fresh store under dir: the median of each, in microseconds.
func storeProbe(dir string, records [][]byte, tr *Tracer) (getUS, putUS float64, err error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	root := tr.Start("probe.store", 0, "probe")
	defer tr.End(root)
	var gets, puts []float64
	for i, rec := range records {
		key := fmt.Sprintf("%064x", i)
		span := tr.Start("store.put", root, "probe")
		t := time.Now()
		if err := st.Put(key, rec); err != nil {
			st.Close()
			return 0, 0, err
		}
		puts = append(puts, float64(time.Since(t))/1e3)
		tr.End(span)
	}
	for i := range records {
		key := fmt.Sprintf("%064x", i)
		span := tr.Start("store.get", root, "probe")
		t := time.Now()
		_, ok := st.Get(key)
		gets = append(gets, float64(time.Since(t))/1e3)
		tr.End(span)
		if !ok {
			st.Close()
			return 0, 0, fmt.Errorf("store probe: record %d not found", i)
		}
	}
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	return median(gets), median(puts), nil
}

// scratchDir returns a fresh directory for this run under the
// checkout's .bench_build.
func scratchDir(name string) (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
