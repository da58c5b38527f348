package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"maxwarp/internal/simt"
)

// setupRepeats is how many times a run sets its workload up before the
// timed phase; it sets it up once more after every round (unit in
// serve-rw) of the untraced timed phase, so that setup_s, the median, spans
// the run's whole length rather than the host's speed of its first moment.
const setupRepeats = 5

// setupTimer times a workload's set-up. build constructs a fresh instance
// (the workload keeps the first one) and returns a function that disposes
// of it, or nil; only build is timed.
type setupTimer struct {
	build func() (dispose func(), err error)
	secs  []float64
}

// sample sets up n times.
func (t *setupTimer) sample(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		dispose, err := t.build()
		if err != nil {
			return err
		}
		t.secs = append(t.secs, time.Since(t0).Seconds())
		if dispose != nil {
			dispose()
		}
	}
	return nil
}

// seconds returns the median set-up time.
func (t *setupTimer) seconds() float64 {
	fmt.Printf("# setup_s samples %.4f\n", t.secs)
	return median(t.secs)
}

// phase is the timed part of a library workload: whole rounds of the same
// operations until their summed time reaches the budget.
type phase struct {
	log    opLog
	rounds int
	// goUse is the Go runtime's activity during the rounds.
	goUse goStats
	// cycles holds each round's simulated cycles; every round runs the same
	// operations, so they must all be equal.
	cycles []int64
	// rate and cpuPerOp hold each round's operations per second and CPU
	// milliseconds per operation; the run reports their medians, which a
	// single disturbed round does not move.
	rate, cpuPerOp []float64
	// rssMB is the peak resident set after round rssRound, or at the end.
	rssMB float64
}

// runRounds runs round until the summed operation time reaches budget,
// always finishing the round it is in and running at least one round and
// at least rssRound rounds, and calls between, when not nil, after every
// round. It reads the peak resident set after round rssRound, or at the
// end when rssRound is 0.
func runRounds(budget time.Duration, rssRound int, round func(p *phase) (int64, error), between func() error) (*phase, error) {
	p := &phase{}
	runtime.GC()
	for p.log.busy < budget || p.rounds == 0 || p.rounds < rssRound {
		busy, cpu, ops := p.log.busy, p.log.cpu, p.log.attempts
		g0 := readGoStats()
		c, err := round(p)
		if err != nil {
			return nil, err
		}
		p.goUse.addSince(g0)
		n := float64(p.log.attempts - ops)
		p.rate = append(p.rate, n/(p.log.busy-busy).Seconds())
		p.cpuPerOp = append(p.cpuPerOp, ms(p.log.cpu-cpu)/n)
		p.cycles = append(p.cycles, c)
		p.rounds++
		if p.rounds == rssRound {
			p.rssMB = peakRSSMB()
		}
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	if rssRound == 0 {
		p.rssMB = peakRSSMB()
	}
	return p, nil
}

// cyclesAgree reports whether every round simulated the same cycles.
func (p *phase) cyclesAgree() bool {
	for _, c := range p.cycles {
		if c != p.cycles[0] {
			return false
		}
	}
	return true
}

// endToEnd fills the end-to-end metrics every library workload reports.
func (p *phase) endToEnd(rep *report, setup *setupTimer) {
	rep.e2e("setup_s", "s", setup.seconds())
	rep.e2e("ops_per_s", "1/s", median(p.rate))
	rep.e2e("latency_p50_ms", "ms", percentile(p.log.latMS, 0.5))
	rep.e2e("latency_p90_ms", "ms", percentile(p.log.latMS, 0.9))
	rep.e2e("cpu_ms_per_op", "ms", median(p.cpuPerOp))
	rep.e2e("sim_cycles", "cycles", float64(p.cycles[0]))
	rep.e2e("peak_rss_mb", "MB", p.rssMB)
}

// goLayer fills the go.* per-layer metrics.
func (p *phase) goLayer(rep *report) {
	n := float64(len(p.log.latMS))
	rep.layer("go.alloc_mb_per_op", "MB", float64(p.goUse.allocBytes)/(1<<20)/n)
	rep.layer("go.gc_cycles", "count", float64(p.goUse.gcCycles))
}

// libRun is the part every library workload's run shares: an untimed,
// checked warm-up round that lets lazily built state settle, the untraced
// phase that gives the end-to-end metrics and, when tracing, a traced phase
// of the same length making the same calls.
type libRun struct {
	untraced, traced *phase
	rec              *recorder
}

// roundFunc runs one round of a library workload, recording spans into rec
// when it is not nil; first marks the untraced phase's first round, whose
// counters the workload keeps.
type roundFunc func(p *phase, rec *recorder, first bool) (int64, error)

// runLib runs the shared part. A workload whose memory grows with every
// round passes rssRound > 0: its untraced phase runs at least that many
// rounds and reports the peak resident set after round rssRound, a fixed
// length rather than whatever length the host's speed allowed. The others
// pass 0 and report it at the end.
func runLib(cfg config, rep *report, setup *setupTimer, epoch time.Time, rssRound int, round roundFunc) (*libRun, error) {
	if _, err := round(&phase{}, nil, false); err != nil {
		return nil, err
	}
	if rep.failed > 0 || rep.wrong > 0 {
		return nil, fmt.Errorf("warm-up round: %d operations failed, %d of them with wrong output", rep.failed, rep.wrong)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	lr := &libRun{}
	var err error
	lr.untraced, err = runRounds(budget, rssRound, func(p *phase) (int64, error) {
		return round(p, nil, p.rounds == 0)
	}, func() error { return setup.sample(1) })
	if err != nil {
		return nil, err
	}
	u := lr.untraced
	rep.attempted = u.log.attempts
	fmt.Printf("# rounds=%d ops/round=%d ops/s per round %.2f\n", u.rounds, u.log.attempts/u.rounds, u.rate)
	if !u.cyclesAgree() {
		rep.wrong++
		fmt.Printf("# simulated cycles differ between identical rounds: %v\n", u.cycles)
	}
	u.endToEnd(rep, setup)
	if !cfg.trace {
		return lr, nil
	}
	lr.rec = newRecorder(1, epoch)
	lr.traced, err = runRounds(budget, 0, func(p *phase) (int64, error) {
		return round(p, lr.rec, false)
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.attempted += lr.traced.log.attempts
	if !lr.traced.cyclesAgree() || lr.traced.cycles[0] != u.cycles[0] {
		rep.wrong++
		fmt.Printf("# traced rounds simulated %v cycles, untraced %d\n", lr.traced.cycles, u.cycles[0])
	}
	return lr, nil
}

// finish fills the layer metrics every library workload shares and writes
// the trace.
func (lr *libRun) finish(cfg config, rep *report, setupRec *recorder) error {
	lr.untraced.goLayer(rep)
	rep.layer("trace.overhead", "ratio", overhead(lr.untraced, lr.traced))
	if err := finishTrace(cfg, rep, []*recorder{setupRec, lr.rec}); err != nil {
		return err
	}
	zeroLayers(rep)
	return nil
}

// overhead is the traced phase's mean operation time over the untraced
// one's, minus one. Both phases run the same whole rounds.
func overhead(untraced, traced *phase) float64 {
	return mean(traced.log.latMS)/mean(untraced.log.latMS) - 1
}

// simtAcc accumulates the simulator counters of a set of algorithm runs.
type simtAcc struct {
	cycles, instr, stall, launches, warps, atomicSerial, fullMask int64
	smCV                                                          []float64
}

func (a *simtAcc) add(s *simt.LaunchStats, launches int, numSMs int) {
	a.cycles += s.Cycles
	a.instr += s.Instructions
	a.stall += s.StallCycles
	a.launches += int64(launches)
	a.warps += int64(s.WarpsLaunched)
	a.atomicSerial += s.AtomicSerial
	a.fullMask += s.FullMaskOps
	// LaunchStats.Add appends each launch's per-SM finish times, so the
	// slice splits into one chunk per launch.
	for i := 0; i+numSMs <= len(s.SMFinish); i += numSMs {
		a.smCV = append(a.smCV, cv(s.SMFinish[i:i+numSMs]))
	}
}

func cv(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	m := sum / float64(len(xs))
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := float64(x) - m
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}

// layer fills the simt.* counters of one round. stepTime is the host time
// spent in stepper steps and repair calls over those runs.
func (a *simtAcc) layer(rep *report, stepTime time.Duration) {
	rep.layer("simt.warp_instructions", "count", float64(a.instr))
	rep.layer("simt.stall_cycles", "cycles", float64(a.stall))
	rep.layer("simt.launches", "count", float64(a.launches))
	rep.layer("simt.warps_launched", "count", float64(a.warps))
	rep.layer("simt.atomic_serial", "count", float64(a.atomicSerial))
	rep.layer("simt.full_mask_ratio", "ratio", ratio(float64(a.fullMask), float64(a.instr)))
	rep.layer("simt.sm_finish_cv", "ratio", mean(a.smCV))
	rep.layer("simt.host_ns_per_warp_instr", "ns", ratio(float64(stepTime.Nanoseconds()), float64(a.instr)))
	rep.layer("simt.host_us_per_launch", "us", ratio(float64(stepTime.Microseconds()), float64(a.launches)))
}

// kClassLayer fills the per-K-class efficiency ratios from one run's stats.
func kClassLayer(rep *report, suffix string, s *simt.LaunchStats) {
	var simd, useful, imb, txns float64
	if s != nil {
		simd, useful, imb, txns = s.SIMDUtilization(), s.UsefulUtilization(), s.WarpImbalanceCV(), s.TxnsPerMemOp()
	}
	rep.layer("simt.simd_util."+suffix, "ratio", simd)
	rep.layer("simt.useful_util."+suffix, "ratio", useful)
	rep.layer("simt.warp_imbalance_cv."+suffix, "ratio", imb)
	rep.layer("simt.mem_txns_per_op."+suffix, "ratio", txns)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroLayers reports the named per-layer metrics as 0 where a workload
// does not exercise or cannot observe them, so every traced run prints the
// full set.
func zeroLayers(rep *report) {
	for _, m := range perLayerMetrics {
		if _, ok := rep.perLayer[m.name]; !ok {
			rep.perLayer[m.name] = metric{0, m.unit}
		}
	}
}

// finishTrace writes the Chrome trace, prints the per-layer table and
// fills the trace.* metrics.
func finishTrace(cfg config, rep *report, recs []*recorder) error {
	sum := summarize(recs)
	sum.printTable(os.Stdout)
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeChromeTrace(path, recs); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# trace written to %s\n", path)
	rep.layer("trace.spans", "count", float64(sum.spans))
	rep.layer("trace.self_sum_err", "ratio", sum.selfErr)
	if sum.selfErr > selfSumTolerance {
		fmt.Printf("# trace: an operation's layer spans miss its time by %.4f (tolerance %.4f)\n", sum.selfErr, selfSumTolerance)
		rep.wrong++
	}
	return nil
}

// selfSumTolerance bounds, per operation, the share of its time its layer
// spans do not account for: 1% of the operation's time, or 1 ms (1% of
// selfSumFloor) for shorter operations, which a garbage-collector pause
// between two layer calls must not exceed.
const (
	selfSumTolerance = 0.01
	selfSumFloor     = 100 * time.Millisecond
)
