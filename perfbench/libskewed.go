package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// lib-skewed: in-process algorithm runs on a LiveJournal-like graph on a
// device with the library's default configuration (parallel host mode,
// one worker slot per core).

const (
	// skewedGraphSeed fixes the graph: the run's seed orders the round but
	// never changes the simulated work (see README.md).
	skewedGraphSeed  = 1
	skewedScale      = 11
	skewedEdgeFactor = 14
	skewedPRIters    = 10
	skewedDefer      = 32
)

// skewedRound is one round's classes; the run's seed permutes their order.
// The weights put the median inside bfs_k32 and the 90th percentile inside
// pagerank, away from any class boundary (see README.md).
var skewedRound = []string{
	"bfs_k32", "bfs_k1", "bfs_k8_defer_dyn", "sssp", "bfs_k32",
	"pagerank", "bfs_k1", "cc", "bfs_k32", "pagerank",
}

type skewed struct {
	order    []string
	g, sym   *graph.CSR
	weights  []int32
	dev      *simt.Device
	dg, dsym *gpualgo.DeviceGraph
	src      graph.VertexID
	numSMs   int
	prWant   []float64

	buildMS, uploadMS []float64
	uploadBytes       int64
	// rs keeps the counters of the untraced phase's first round.
	rs skewedRoundStats
}

func newSkewed(seed int64, rec *recorder) (*skewed, error) {
	w := &skewed{}
	t0 := time.Now()
	rec.begin("gengraph.build")
	g, err := gengraph.RMATSimple(skewedScale, skewedEdgeFactor, gengraph.DefaultRMAT, skewedGraphSeed)
	rec.end()
	if err != nil {
		return nil, err
	}
	w.buildMS = append(w.buildMS, ms(time.Since(t0)))
	w.g = g
	w.weights = gengraph.EdgeWeights(g, 16, skewedGraphSeed)
	if w.sym, err = g.Symmetrize(); err != nil {
		return nil, err
	}
	if w.dev, err = simt.NewDevice(simt.DefaultConfig()); err != nil {
		return nil, err
	}
	w.numSMs = w.dev.Config().NumSMs
	t0 = time.Now()
	rec.begin("gpualgo.upload")
	w.dg, err = gpualgo.UploadWeighted(w.dev, g, w.weights)
	rec.end()
	if err != nil {
		return nil, err
	}
	w.uploadMS = append(w.uploadMS, ms(time.Since(t0)))
	t0 = time.Now()
	rec.begin("gpualgo.upload")
	w.dsym, err = gpualgo.UploadChecked(w.dev, w.sym)
	rec.end()
	if err != nil {
		return nil, err
	}
	w.uploadMS = append(w.uploadMS, ms(time.Since(t0)))
	w.uploadBytes = 4 * int64(len(g.RowPtr)+2*len(g.Col)+len(w.sym.RowPtr)+len(w.sym.Col))
	w.src = graph.LargestOutComponentSeed(g)
	w.order = append([]string(nil), skewedRound...)
	rand.New(rand.NewSource(seed)).Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
	return w, nil
}

// algoOut is one algorithm run's record: its counters and a deferred
// check of its output.
type algoOut struct {
	stats      *simt.LaunchStats
	launches   int
	iterations int
	deferred   int
	check      func() error
}

type stepRun interface {
	Step() (bool, error)
}

// drive steps a run to completion, one span per step.
func drive(rec *recorder, r stepRun) error {
	for {
		rec.begin("gpualgo.step")
		done, err := r.Step()
		rec.end()
		if err != nil || done {
			return err
		}
	}
}

func (w *skewed) run(class string, rec *recorder) (*algoOut, error) {
	n := w.g.NumVertices()
	bfs := func(opts gpualgo.Options) (*algoOut, error) {
		rec.begin("gpualgo.new_run")
		r, err := gpualgo.NewBFSRun(w.dev, w.dg, w.src, opts)
		rec.end()
		if err != nil {
			return nil, err
		}
		if err := drive(rec, r); err != nil {
			return nil, err
		}
		rec.begin("gpualgo.result")
		res := r.Result()
		rec.end()
		return &algoOut{&res.Stats, res.Launches, res.Iterations, res.Deferred, func() error {
			return checkPaths(n, csrEdges(w.g, nil), w.src, res.Levels, true)
		}}, nil
	}
	switch class {
	case "bfs_k32":
		return bfs(gpualgo.Options{K: 32})
	case "bfs_k1":
		return bfs(gpualgo.Options{K: 1})
	case "bfs_k8_defer_dyn":
		return bfs(gpualgo.Options{K: 8, DeferThreshold: skewedDefer, Dynamic: true})
	case "sssp":
		rec.begin("gpualgo.new_run")
		r, err := gpualgo.NewSSSPRun(w.dev, w.dg, w.src, gpualgo.Options{K: 32})
		rec.end()
		if err != nil {
			return nil, err
		}
		if err := drive(rec, r); err != nil {
			return nil, err
		}
		rec.begin("gpualgo.result")
		res := r.Result()
		rec.end()
		return &algoOut{&res.Stats, res.Launches, res.Iterations, 0, func() error {
			return checkPaths(n, csrEdges(w.g, w.weights), w.src, mapUnreached(res.Dist, cpualgo.InfDist), false)
		}}, nil
	case "pagerank":
		rec.begin("gpualgo.new_run")
		r, err := gpualgo.NewPageRankRun(w.dev, w.g, gpualgo.PageRankOptions{Options: gpualgo.Options{K: 32}, Iterations: skewedPRIters})
		rec.end()
		if err != nil {
			return nil, err
		}
		if err := drive(rec, r); err != nil {
			return nil, err
		}
		rec.begin("gpualgo.result")
		res := r.Result()
		rec.end()
		return &algoOut{&res.Stats, res.Launches, res.Iterations, 0, func() error {
			if w.prWant == nil {
				w.prWant = powerIteration(n, csrEdges(w.g, nil), skewedPRIters, 0.85)
			}
			return checkRanks(res.Ranks, w.prWant)
		}}, nil
	case "cc":
		rec.begin("gpualgo.new_run")
		r, err := gpualgo.NewCCRun(w.dev, w.dsym, gpualgo.Options{K: 32})
		rec.end()
		if err != nil {
			return nil, err
		}
		if err := drive(rec, r); err != nil {
			return nil, err
		}
		rec.begin("gpualgo.result")
		res := r.Result()
		rec.end()
		return &algoOut{&res.Stats, res.Launches, res.Iterations, 0, func() error {
			return checkLabels(n, csrEdges(w.sym, nil), res.Labels)
		}}, nil
	}
	return nil, fmt.Errorf("unknown class %q", class)
}

// skewedRoundStats holds one round's counters.
type skewedRoundStats struct {
	acc        simtAcc
	byClass    map[string]*simt.LaunchStats
	iterations int
	deferred   int
	prUpload   int64
}

// round runs one round; the first one's counters go to w.rs.
func (w *skewed) round(p *phase, rec *recorder, rep *report, first bool) (int64, error) {
	var rs *skewedRoundStats
	if first {
		w.rs = skewedRoundStats{byClass: map[string]*simt.LaunchStats{}}
		rs = &w.rs
	}
	var cycles int64
	for _, class := range w.order {
		var out *algoOut
		id := p.log.attempts
		err := p.log.timeOp(func() error {
			rec.beginOp(id, "gpualgo.run."+class)
			defer rec.end()
			var err error
			out, err = w.run(class, rec)
			return err
		})
		if err != nil {
			rep.failed++
			fmt.Printf("# op %s failed: %v\n", class, err)
			continue
		}
		if err := out.check(); err != nil {
			rep.failed++
			rep.wrong++
			fmt.Printf("# op %s wrong: %v\n", class, err)
		}
		cycles += out.stats.Cycles
		if rs != nil {
			rs.acc.add(out.stats, out.launches, w.numSMs)
			rs.iterations += out.iterations
			rs.deferred += out.deferred
			if _, ok := rs.byClass[class]; !ok {
				rs.byClass[class] = out.stats
			}
			if class == "pagerank" {
				n := w.g.NumVertices()
				rs.prUpload += 4 * int64(n+1+len(w.g.Col)+n)
			}
		}
	}
	return cycles, nil
}

func runSkewed(cfg config) (*report, error) {
	rep := newReport()
	var w *skewed
	var buildMS, uploadMS []float64
	epoch := time.Now()
	var setupRec *recorder
	if cfg.trace {
		setupRec = newRecorder(0, epoch)
	}
	setup := &setupTimer{build: func() (func(), error) {
		x, err := newSkewed(cfg.seed, setupRec)
		if err != nil {
			return nil, err
		}
		buildMS = append(buildMS, x.buildMS...)
		uploadMS = append(uploadMS, x.uploadMS...)
		if w == nil {
			w = x
		}
		return nil, nil
	}}
	err := setup.sample(setupRepeats)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# graph %s\n", graph.Stats(w.g))
	lr, err := runLib(cfg, rep, setup, epoch, 0, func(p *phase, rec *recorder, first bool) (int64, error) {
		return w.round(p, rec, rep, first)
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}

	stepTime, stepMS, runMS := time.Duration(0), []float64{}, map[string][]float64{}
	for _, s := range lr.rec.spans {
		d := s.end - s.start
		switch {
		case s.name == "gpualgo.step":
			stepMS = append(stepMS, ms(d))
			if s.op < len(skewedRound) { // first traced round only
				stepTime += d
			}
		default:
			if class, ok := strings.CutPrefix(s.name, "gpualgo.run."); ok {
				runMS[class] = append(runMS[class], ms(d))
			}
		}
	}
	rs := &w.rs
	rs.acc.layer(rep, stepTime)
	kClassLayer(rep, "k32", rs.byClass["bfs_k32"])
	kClassLayer(rep, "k1", rs.byClass["bfs_k1"])
	kClassLayer(rep, "k8", rs.byClass["bfs_k8_defer_dyn"])
	rep.layer("vwarp.deferred_vertices", "count", float64(rs.deferred))
	for class, xs := range runMS {
		rep.layer("gpualgo.run_ms."+class, "ms", median(xs))
	}
	rep.layer("gpualgo.step_ms", "ms", median(stepMS))
	rep.layer("gpualgo.iterations", "count", float64(rs.iterations))
	rep.layer("gpualgo.upload_ms", "ms", median(uploadMS))
	rep.layer("gpualgo.upload_mb", "MB", float64(w.uploadBytes+rs.prUpload)/(1<<20))
	rep.layer("gengraph.build_ms", "ms", median(buildMS))
	return rep, lr.finish(cfg, rep, setupRec)
}
