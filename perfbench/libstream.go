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

// lib-stream: seeded mixed insert/delete batches through graph.Delta on a
// LiveJournal-like graph; after each batch the overlay is uploaded again
// and BFS, SSSP (directed, weighted overlay) and CC (symmetric overlay) are
// repaired incrementally. Everything runs on one long-lived device and one
// pair of overlays for the whole run, the way a streaming user holds them.
// A round is streamBatches batches followed by their reverts in reverse
// order, so each round ends on the graph it started from and repeats the
// same simulated work, while the device's buffer registry keeps growing.

const (
	// streamGraphSeed and streamBatchSeed fix the graph and the batches:
	// the run's seed only orders independent calls within a batch, so the
	// simulated work is the same for every seed (see README.md).
	streamGraphSeed  = 1
	streamBatchSeed  = 2
	streamScale      = 10
	streamEdgeFactor = 14
	streamBatches    = 10 // forward batches per round; as many reverts follow
	streamDeletes    = 7
	streamInserts    = 6
	streamK          = 32
	// streamRSSRound is the round after which peak_rss_mb is read: the
	// device grows with every batch, so the reading is taken at a fixed
	// stream length (200 batches).
	streamRSSRound = 10
)

// streamOp is one batch: its directed mutations and the ones the symmetric
// overlay receives.
type streamOp struct {
	dir, sym []graph.EdgeMutation
}

type stream struct {
	g, sym  *graph.CSR
	weights []int32
	src     graph.VertexID
	numSMs  int

	// dev, dl and sdl are the device and overlays the whole run streams
	// into; levels, dist and labels are the latest repaired results.
	dev                  *simt.Device
	dl, sdl              *graph.Delta
	levels, dist, labels []int32
	// model and symModel are the checks' own copies of the overlays' edge
	// sets.
	model, symModel *edgeModel
	// ops is one round; ccFirst and ssspFirst order each op's independent
	// calls.
	ops                []streamOp
	ccFirst, ssspFirst []bool
	// rs keeps the counters of the untraced phase's first round.
	rs streamRoundStats

	buildMS, uploadMS []float64
}

func newStream(rec *recorder) (*stream, error) {
	s := &stream{}
	t0 := time.Now()
	rec.begin("gengraph.build")
	g, err := gengraph.RMATSimple(streamScale, streamEdgeFactor, gengraph.DefaultRMAT, streamGraphSeed)
	rec.end()
	if err != nil {
		return nil, err
	}
	s.buildMS = append(s.buildMS, ms(time.Since(t0)))
	s.g = g
	s.weights = gengraph.EdgeWeights(g, 16, streamGraphSeed)
	if s.sym, err = g.Symmetrize(); err != nil {
		return nil, err
	}
	if s.dev, err = simt.NewDevice(simt.DefaultConfig()); err != nil {
		return nil, err
	}
	s.numSMs = s.dev.Config().NumSMs
	if s.dl, err = graph.NewDelta(g, s.weights); err != nil {
		return nil, err
	}
	if s.sdl, err = graph.NewDelta(s.sym, nil); err != nil {
		return nil, err
	}
	for _, d := range []*graph.Delta{s.dl, s.sdl} {
		t0 = time.Now()
		rec.begin("gpualgo.upload")
		_, err := gpualgo.UploadDelta(s.dev, d)
		rec.end()
		if err != nil {
			return nil, err
		}
		s.uploadMS = append(s.uploadMS, ms(time.Since(t0)))
	}
	s.src = graph.LargestOutComponentSeed(g)
	return s, nil
}

// prepare computes the initial full results, draws the round's batches and
// their reverts, and orders each batch's calls by the seed. It is input
// preparation, outside set-up and the timed phase.
func (s *stream) prepare(seed int64) error {
	opts := gpualgo.Options{K: streamK}
	dg, err := gpualgo.UploadWeighted(s.dev, s.g, s.weights)
	if err != nil {
		return err
	}
	b, err := gpualgo.BFS(s.dev, dg, s.src, opts)
	if err != nil {
		return err
	}
	d, err := gpualgo.SSSP(s.dev, dg, s.src, opts)
	if err != nil {
		return err
	}
	c, err := gpualgo.ConnectedComponents(s.dev, gpualgo.Upload(s.dev, s.sym), opts)
	if err != nil {
		return err
	}
	n := s.g.NumVertices()
	if err := checkPaths(n, csrEdges(s.g, nil), s.src, b.Levels, true); err != nil {
		return fmt.Errorf("initial bfs: %w", err)
	}
	if err := checkPaths(n, csrEdges(s.g, s.weights), s.src, mapUnreached(d.Dist, cpualgo.InfDist), false); err != nil {
		return fmt.Errorf("initial sssp: %w", err)
	}
	if err := checkLabels(n, csrEdges(s.sym, nil), c.Labels); err != nil {
		return fmt.Errorf("initial cc: %w", err)
	}
	s.levels, s.dist, s.labels = b.Levels, d.Dist, c.Labels
	rng := rand.New(rand.NewSource(streamBatchSeed))
	m, sm := newEdgeModel(s.g, s.weights), newEdgeModel(s.sym, nil)
	var reverts []streamOp
	for i := 0; i < streamBatches; i++ {
		op := streamOp{dir: m.randomBatch(rng, streamDeletes, streamInserts, 16)}
		op.sym = symmetric(op.dir)
		var rev streamOp
		_, rev.dir = m.applyReverting(op.dir, true)
		_, rev.sym = sm.applyReverting(op.sym, false)
		s.ops = append(s.ops, op)
		reverts = append(reverts, rev)
	}
	for i := len(reverts) - 1; i >= 0; i-- {
		s.ops = append(s.ops, reverts[i])
	}
	s.model, s.symModel = newEdgeModel(s.g, s.weights), newEdgeModel(s.sym, nil)
	order := rand.New(rand.NewSource(seed))
	for range s.ops {
		s.ccFirst = append(s.ccFirst, order.Intn(2) == 0)
		s.ssspFirst = append(s.ssspFirst, order.Intn(2) == 0)
	}
	return nil
}

// batchOut is one batch's outputs, checked after the batch is timed.
type batchOut struct {
	st, sst             graph.ApplyStats
	bfs, sssp, cc       *gpualgo.Result
	levels, dist, label []int32
	info                [3]gpualgo.RepairInfo
}

func deltaUploadBytes(dl *graph.Delta) int64 {
	ext, extW := dl.ExtCSR()
	n := 2*len(dl.Base().Col) + len(dl.Base().RowPtr) + len(ext.RowPtr) + len(ext.Col) + len(extW)
	if dl.Weighted() {
		n += len(dl.BaseWeights())
	}
	return 4 * int64(n)
}

func (s *stream) batch(i int, rec *recorder) (*batchOut, error) {
	opts := gpualgo.Options{K: streamK}
	op := s.ops[i]
	out := &batchOut{}
	// directed applies the batch to the weighted overlay, uploads it and
	// repairs BFS and SSSP; symmetric does the same for CC.
	directed := func() error {
		rec.begin("graph.delta_apply")
		applied, st, err := s.dl.Apply(op.dir)
		rec.end()
		if err != nil {
			return err
		}
		out.st = st
		rec.begin("gpualgo.upload")
		ddg, err := gpualgo.UploadDelta(s.dev, s.dl)
		rec.end()
		if err != nil {
			return err
		}
		bfs := func() error {
			rec.begin("gpualgo.inc_bfs")
			r, info, err := gpualgo.IncrementalBFS(s.dev, s.dl, ddg, s.src, s.levels, applied, opts)
			rec.end()
			if err == nil {
				out.bfs, out.levels, out.info[0] = &r.Result, r.Levels, info
			}
			return err
		}
		sssp := func() error {
			rec.begin("gpualgo.inc_sssp")
			r, info, err := gpualgo.IncrementalSSSP(s.dev, s.dl, ddg, s.src, s.dist, applied, opts)
			rec.end()
			if err == nil {
				out.sssp, out.dist, out.info[1] = &r.Result, r.Dist, info
			}
			return err
		}
		if s.ssspFirst[i] {
			bfs, sssp = sssp, bfs
		}
		if err := bfs(); err != nil {
			return err
		}
		return sssp()
	}
	symmetricCC := func() error {
		rec.begin("graph.delta_apply")
		applied, st, err := s.sdl.Apply(op.sym)
		rec.end()
		if err != nil {
			return err
		}
		out.sst = st
		rec.begin("gpualgo.upload")
		ddg, err := gpualgo.UploadDelta(s.dev, s.sdl)
		rec.end()
		if err != nil {
			return err
		}
		rec.begin("gpualgo.inc_cc")
		r, info, err := gpualgo.IncrementalCC(s.dev, s.sdl, ddg, s.labels, applied, opts)
		rec.end()
		if err == nil {
			out.cc, out.label, out.info[2] = &r.Result, r.Labels, info
		}
		return err
	}
	first, second := directed, symmetricCC
	if s.ccFirst[i] {
		first, second = second, first
	}
	if err := first(); err != nil {
		return nil, err
	}
	if err := second(); err != nil {
		return nil, err
	}
	s.levels, s.dist, s.labels = out.levels, out.dist, out.label
	return out, nil
}

// check tests a batch's outputs against the benchmark's own models, which
// it advances by the same batch.
func (s *stream) check(op streamOp, out *batchOut) error {
	if want := s.model.apply(op.dir, true); want != out.st {
		return fmt.Errorf("apply stats %+v, model says %+v", out.st, want)
	}
	if want := s.symModel.apply(op.sym, false); want != out.sst {
		return fmt.Errorf("symmetric apply stats %+v, model says %+v", out.sst, want)
	}
	n := s.g.NumVertices()
	if err := checkPaths(n, s.model.forEdge, s.src, out.levels, true); err != nil {
		return fmt.Errorf("incremental bfs: %w", err)
	}
	if err := checkPaths(n, s.model.forEdge, s.src, mapUnreached(out.dist, cpualgo.InfDist), false); err != nil {
		return fmt.Errorf("incremental sssp: %w", err)
	}
	if err := checkLabels(n, s.symModel.forEdge, out.label); err != nil {
		return fmt.Errorf("incremental cc: %w", err)
	}
	return nil
}

// streamRoundStats holds one round's counters.
type streamRoundStats struct {
	acc         simtAcc
	info        [3]gpualgo.RepairInfo
	uploadBytes int64
}

// round runs one round of batches; the first round's counters go to s.rs.
// A batch that returns an error ends the run: the overlays' state is
// unknown after it.
func (s *stream) round(p *phase, rec *recorder, rep *report, first bool) (int64, error) {
	var rs *streamRoundStats
	if first {
		s.rs = streamRoundStats{}
		rs = &s.rs
	}
	var cycles int64
	for i, op := range s.ops {
		var out *batchOut
		id := p.log.attempts
		err := p.log.timeOp(func() error {
			rec.beginOp(id, "stream.batch")
			defer rec.end()
			var err error
			out, err = s.batch(i, rec)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("batch %d: %w", i, err)
		}
		if err := s.check(op, out); err != nil {
			rep.failed++
			rep.wrong++
			fmt.Printf("# batch wrong: %v\n", err)
		}
		for _, r := range []*gpualgo.Result{out.bfs, out.sssp, out.cc} {
			cycles += r.Stats.Cycles
			if rs != nil {
				rs.acc.add(&r.Stats, r.Launches, s.numSMs)
			}
		}
		if rs != nil {
			for i, inf := range out.info {
				rs.info[i].Invalidated += inf.Invalidated
				rs.info[i].Seeds += inf.Seeds
				rs.info[i].Rounds += inf.Rounds
			}
			// Both overlays were uploaded in the state the batch left.
			rs.uploadBytes += deltaUploadBytes(s.dl) + deltaUploadBytes(s.sdl)
		}
	}
	return cycles, nil
}

func runStream(cfg config) (*report, error) {
	rep := newReport()
	var s *stream
	var buildMS, uploadMS []float64
	epoch := time.Now()
	var setupRec *recorder
	if cfg.trace {
		setupRec = newRecorder(0, epoch)
	}
	setup := &setupTimer{build: func() (func(), error) {
		x, err := newStream(setupRec)
		if err != nil {
			return nil, err
		}
		buildMS = append(buildMS, x.buildMS...)
		uploadMS = append(uploadMS, x.uploadMS...)
		if s == nil {
			s = x
		}
		return nil, nil
	}}
	err := setup.sample(setupRepeats)
	if err != nil {
		return nil, err
	}
	if err := s.prepare(cfg.seed); err != nil {
		return nil, err
	}
	fmt.Printf("# graph %s\n", graph.Stats(s.g))
	lr, err := runLib(cfg, rep, setup, epoch, streamRSSRound, func(p *phase, rec *recorder, first bool) (int64, error) {
		return s.round(p, rec, rep, first)
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}

	var repairTime time.Duration
	spanMS := map[string][]float64{}
	for _, sp := range lr.rec.spans {
		d := sp.end - sp.start
		spanMS[sp.name] = append(spanMS[sp.name], ms(d))
		if strings.HasPrefix(sp.name, "gpualgo.inc_") && sp.op < len(s.ops) {
			repairTime += d
		}
	}
	rs := &s.rs
	rs.acc.layer(rep, repairTime)
	for i, class := range []string{"inc_bfs", "inc_sssp", "inc_cc"} {
		rep.layer("gpualgo.run_ms."+class, "ms", median(spanMS["gpualgo."+class]))
		rep.layer("gpualgo.repair_invalidated."+class, "count", float64(rs.info[i].Invalidated))
		rep.layer("gpualgo.repair_seeds."+class, "count", float64(rs.info[i].Seeds))
		rep.layer("gpualgo.repair_rounds."+class, "count", float64(rs.info[i].Rounds))
	}
	rep.layer("gpualgo.upload_ms", "ms", median(append(uploadMS, spanMS["gpualgo.upload"]...)))
	rep.layer("gpualgo.upload_mb", "MB", float64(rs.uploadBytes)/(1<<20))
	rep.layer("graph.delta_apply_us", "us", 1000*median(spanMS["graph.delta_apply"]))
	rep.layer("gengraph.build_ms", "ms", median(buildMS))
	return rep, lr.finish(cfg, rep, setupRec)
}
