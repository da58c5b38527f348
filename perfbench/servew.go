package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/graph"
	"maxwarp/internal/serve"
)

// serve-rw: an in-process server with its default configuration on a
// loopback listener, holding a LiveJournal-like graph and a RoadNet-like
// mesh. Two closed-loop clients, one connection each, each own one graph
// and repeat a fixed round of queries and mutations. Every round ends by
// reverting its own mutation, so each round starts from the same graph and
// repeats the same device work; which query hits the result cache is fixed
// by the round (a repeat of an earlier query in the same epoch).

const (
	// serveGraphSeed and serveBatchSeed fix the graphs and the mutation
	// batches; the run's seed only orders each client's queries between
	// mutations, so the device work is the same for every seed.
	serveGraphSeed   = 1
	serveBatchSeed   = 2
	serveSocialScale = 10
	serveMeshRows    = 32
	serveMeshCols    = 32
	serveDeletes     = 6
	serveInserts     = 6
	servePRIters     = 5
	serveDeadlineMS  = 30000
)

// step is one request of a client's round.
type step struct {
	mutate  int // 0: query; 1: forward mutation; 2: its revert
	algo    string
	src     int // index into the graph's sources
	k       int
	full    bool
	damping float64 // PageRank only
}

func q(algo string, src, k int, full bool) step {
	return step{algo: algo, src: src, k: k, full: full}
}

func pr(k int, damping float64) step {
	return step{algo: "pagerank", k: k, damping: damping}
}

var (
	fwd    = step{mutate: 1}
	revert = step{mutate: 2}
)

// Rounds, one per client; a unit of the timed phase is one round of each
// client, run concurrently. Repeats of an earlier query of the same epoch
// are the cache hits; the run's seed shuffles the queries between
// mutations, keeping every repeat at least two requests after the query it
// repeats, so the result is in the cache by then.
//
// The weights place the median inside the road BFS class and the 90th
// percentile inside the social PageRank class (PageRanks that differ only
// in damping cost the same), each away from a class boundary; README.md
// has the ladder.
var (
	socialRound = []step{
		q("bfs", 0, 32, false), pr(32, 0.85), q("cc", 0, 32, false), pr(32, 0.80), pr(32, 0.75), pr(32, 0.70), q("bfs", 0, 32, false),
		fwd,
		q("bfs", 0, 32, false), pr(32, 0.85), q("sssp", 1, 32, true), pr(32, 0.80), pr(32, 0.75), pr(32, 0.70), q("bfs", 0, 32, false),
		revert,
	}
	roadRound = []step{
		q("bfs", 0, 4, false), q("bfs", 1, 4, false), q("bfs", 2, 4, false), q("bfs", 3, 4, false), q("sssp", 4, 4, true), q("bfs", 0, 4, false),
		fwd,
		q("bfs", 0, 4, false), q("bfs", 1, 4, false), q("bfs", 2, 4, false), q("bfs", 3, 4, false), q("cc", 0, 4, false), q("bfs", 1, 4, false),
		revert,
		q("bfs", 0, 4, false), q("bfs", 1, 4, false), q("bfs", 2, 4, false), q("bfs", 3, 4, false), q("bfs", 2, 4, false),
		fwd,
		q("bfs", 0, 4, false), q("bfs", 1, 4, false), q("bfs", 2, 4, false), q("bfs", 3, 4, false), q("bfs", 3, 4, false),
		revert,
	}
)

// servedGraph is one served graph as the benchmark knows it: its states
// before and after the round's forward mutation, and the two batches.
type servedGraph struct {
	name   string
	round  []step
	file   string
	g0     *graph.CSR
	w0     []int32
	srcs   []int32
	fwd    []graph.EdgeMutation
	rev    []graph.EdgeMutation
	states [2]*edgeModel
	stats  [2]graph.ApplyStats // what each batch must report
	mu     sync.Mutex
	refs   map[string]*reference
}

// canonical returns g's edges sorted per vertex with weights, the layout
// the server's compaction produces, so a reverted graph equals the start.
func canonical(g *graph.CSR, w []int32) (*graph.CSR, []int32, error) {
	return newEdgeModel(g, w).csr()
}

// buildServedGraphs generates both graphs and writes them as DIMACS files
// the server loads; it also returns the generation time in milliseconds.
func buildServedGraphs(dir string, rec *recorder) ([]*servedGraph, float64, error) {
	t0 := time.Now()
	rec.begin("gengraph.build")
	social, err := gengraph.RMATSimple(serveSocialScale, 14, gengraph.DefaultRMAT, serveGraphSeed)
	rec.end()
	if err != nil {
		return nil, 0, err
	}
	rec.begin("gengraph.build")
	mesh, err := gengraph.Mesh2D(serveMeshRows, serveMeshCols)
	rec.end()
	if err != nil {
		return nil, 0, err
	}
	buildMS := ms(time.Since(t0))
	var out []*servedGraph
	for i, spec := range []struct {
		name  string
		g     *graph.CSR
		round []step
	}{{"social", social, socialRound}, {"road", mesh, roadRound}} {
		g, w, err := canonical(spec.g, gengraph.EdgeWeights(spec.g, 16, serveGraphSeed+uint64(i)))
		if err != nil {
			return nil, 0, err
		}
		sg := &servedGraph{name: spec.name, round: spec.round, g0: g, w0: w, file: filepath.Join(dir, spec.name+".gr"), refs: map[string]*reference{}}
		f, err := os.Create(sg.file)
		if err != nil {
			return nil, 0, err
		}
		err = graph.WriteDIMACS(f, g, w)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, err
		}
		out = append(out, sg)
	}
	return out, buildMS, nil
}

// prepare draws sources and the forward batch, derives the revert batch
// and both graph states, and orders the round by the run's seed.
func (sg *servedGraph) prepare(rng, order *rand.Rand) {
	sg.round = shuffleSegments(sg.round, order)
	n := int32(sg.g0.NumVertices())
	if sg.name == "road" {
		// The four corners, whose BFS costs the same by symmetry, and the
		// centre.
		c := int32(serveMeshCols)
		sg.srcs = []int32{0, c - 1, n - c, n - 1, (serveMeshRows/2)*c + c/2}
	} else {
		s := int32(graph.LargestOutComponentSeed(sg.g0))
		sg.srcs = []int32{s, s}
		for sg.srcs[1] == s || sg.g0.Degree(sg.srcs[1]) == 0 {
			sg.srcs[1] = rng.Int31n(n)
		}
	}
	m0 := newEdgeModel(sg.g0, sg.w0)
	sg.fwd = m0.randomBatch(rng, serveDeletes, serveInserts, 16)
	m1 := newEdgeModel(sg.g0, sg.w0)
	sg.stats[0], sg.rev = m1.applyReverting(sg.fwd, true)
	m2 := newEdgeModel(sg.g0, sg.w0)
	m2.apply(sg.fwd, true)
	sg.stats[1] = m2.apply(sg.rev, true)
	sg.states = [2]*edgeModel{m0, m1}
}

// serverSet is one constructed and started server.
type serverSet struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	graphs []*servedGraph
	dir    string
}

func startServer(outDir string, rec *recorder) (*serverSet, float64, error) {
	dir, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return nil, 0, err
	}
	graphs, buildMS, err := buildServedGraphs(dir, rec)
	if err != nil {
		return nil, 0, err
	}
	var specs []serve.GraphSpec
	for _, sg := range graphs {
		specs = append(specs, serve.GraphSpec{Name: sg.name, File: sg.file})
	}
	srv, err := serve.New(serve.Config{Graphs: specs, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	srv.Start()
	ss := &serverSet{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), graphs: graphs, dir: dir}
	go ss.hs.Serve(ln)
	if err := serve.WaitReady(ss.url, 10*time.Second); err != nil {
		ss.stop()
		return nil, 0, err
	}
	return ss, buildMS, nil
}

func (ss *serverSet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ss.hs.Shutdown(ctx)
	ss.srv.Shutdown(ctx)
	os.RemoveAll(ss.dir)
}

// served is one completed request as the client saw it.
type served struct {
	st      step
	pos     int // index in the round
	status  int
	latency time.Duration
	// respAt is when the response headers arrived: the server finished
	// executing just before.
	respAt time.Time
	bytes  int
	query  *serve.QueryResponse
	mut    *serve.MutateResponse
	err    error
}

// client is one closed-loop connection driving one graph.
type client struct {
	sg   *servedGraph
	http *http.Client
	url  string
	rec  *recorder
	log  []served
	// roundCycles and roundHits hold each round's simulated cycles and
	// cache hits.
	roundCycles []int64
	roundHits   []int
}

// do sends one request. When tracing, the operation's root span holds a
// serve.http span, from sending the request to the end of the body, with
// the server-reported queue wait and execution inside it, and a
// serve.decode span for the JSON decoding of the answer.
func (c *client) do(id int, st step) served {
	var path string
	var body []byte
	if st.mutate == 0 {
		src := c.sg.srcs[st.src]
		qr := serve.QueryRequest{Algo: st.algo, Graph: c.sg.name, Source: &src, K: st.k, Full: st.full, DeadlineMillis: serveDeadlineMS}
		if st.algo == "pagerank" {
			qr.Iterations, qr.Damping = servePRIters, st.damping
		}
		path, body = "/v1/query", mustJSON(qr)
	} else {
		batch := c.sg.fwd
		if st.mutate == 2 {
			batch = c.sg.rev
		}
		mr := serve.MutateRequest{}
		for _, m := range batch {
			mr.Mutations = append(mr.Mutations, serve.MutationSpec{Src: m.Src, Dst: m.Dst, Weight: m.Weight, Del: m.Del})
		}
		path, body = "/v1/graphs/"+c.sg.name+"/mutate", mustJSON(mr)
	}
	name := "serve.query"
	if st.mutate != 0 {
		name = "serve.mutate"
	}
	c.rec.beginOp(id, name)
	defer c.rec.end()
	out := served{st: st}
	httpSpan := c.rec.begin("serve.http")
	t0 := time.Now()
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(body))
	out.respAt = time.Now()
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status, out.bytes = resp.StatusCode, len(data)
	}
	out.latency = time.Since(t0)
	c.rec.end()
	out.err = err
	if err != nil || out.status != http.StatusOK {
		return out
	}
	c.rec.begin("serve.decode")
	if st.mutate == 0 {
		out.query = &serve.QueryResponse{}
		out.err = json.Unmarshal(data, out.query)
	} else {
		out.mut = &serve.MutateResponse{}
		out.err = json.Unmarshal(data, out.mut)
	}
	c.rec.end()
	if qr := out.query; c.rec != nil && qr != nil && qr.Engine == "gpu" {
		end := out.respAt.Sub(c.rec.epoch)
		exec := time.Duration(qr.ExecMillis * float64(time.Millisecond))
		wait := time.Duration(qr.QueueWaitMillis * float64(time.Millisecond))
		c.rec.interval(httpSpan, "serve.queue_wait", end-exec-wait, end-exec)
		c.rec.interval(httpSpan, "serve.exec", end-exec, end)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request types are marshalled
	}
	return b
}

// round runs one round of the client's steps.
func (c *client) round() {
	var cycles int64
	hits := 0
	for pos, st := range c.sg.round {
		r := c.do(len(c.log), st)
		r.pos = pos
		c.log = append(c.log, r)
		if qr := r.query; qr != nil {
			if qr.Engine == "gpu" {
				cycles += qr.Result.SimCycles
			}
			if qr.Cached {
				hits++
			}
		}
	}
	c.roundCycles = append(c.roundCycles, cycles)
	c.roundHits = append(c.roundHits, hits)
}

// servePhase runs both clients for budget and collects what they saw.
type servePhase struct {
	clients []*client
	// rate and cpuPerOp hold each unit's requests per second and CPU
	// milliseconds per request; the run reports their medians.
	rate, cpuPerOp []float64
	// goUse is the Go runtime's activity during the units.
	goUse goStats
}

// runServePhase runs units until their summed wall time reaches budget,
// calling between, when not nil, after every unit.
func runServePhase(ss *serverSet, budget time.Duration, traced bool, epoch time.Time, between func() error) (*servePhase, error) {
	p := &servePhase{}
	for i, sg := range ss.graphs {
		c := &client{sg: sg, url: ss.url,
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
		if traced {
			c.rec = newRecorder(2+i, epoch)
		}
		p.clients = append(p.clients, c)
	}
	runtime.GC()
	// Units until the budget is spent, at least one: every client runs one
	// round, and the next unit starts when all have finished, so the mix
	// of request classes is the same in every run.
	var spent time.Duration
	for first := true; first || spent < budget; first = false {
		g0, c0, u0, ops := readGoStats(), cpuTime(), time.Now(), len(p.all())
		var wg sync.WaitGroup
		for _, c := range p.clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.round()
			}(c)
		}
		wg.Wait()
		d := time.Since(u0)
		p.goUse.addSince(g0)
		spent += d
		n := float64(len(p.all()) - ops)
		p.rate = append(p.rate, n/d.Seconds())
		p.cpuPerOp = append(p.cpuPerOp, ms(cpuTime()-c0)/n)
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range p.clients {
		c.http.CloseIdleConnections()
	}
	return p, nil
}

func (p *servePhase) all() []served {
	var out []served
	for _, c := range p.clients {
		out = append(out, c.log...)
	}
	return out
}

func (p *servePhase) latencies() []float64 {
	var out []float64
	for _, r := range p.all() {
		out = append(out, ms(r.latency))
	}
	return out
}

func meanLatency(log []served) float64 {
	var xs []float64
	for _, r := range log {
		xs = append(xs, ms(r.latency))
	}
	return mean(xs)
}

// printClasses prints each request class's count and median latency, the
// figures the round weights are chosen from.
func (p *servePhase) printClasses() {
	for _, c := range p.clients {
		by := map[string][]float64{}
		var keys []string
		for _, r := range c.log {
			k := describe(r.st)
			if r.query != nil && r.query.Cached {
				k += "/hit"
			}
			if _, ok := by[k]; !ok {
				keys = append(keys, k)
			}
			by[k] = append(by[k], ms(r.latency))
		}
		for _, k := range keys {
			fmt.Printf("# %s %-36s n=%4d p50_ms=%9.3f\n", c.sg.name, k, len(by[k]), median(by[k]))
		}
	}
}

// reference is the benchmark's own answer to one query on one state.
type reference struct {
	dist   []int32 // BFS levels or SSSP distances, unreached = -1
	labels []int32
	ranks  []float64
}

func (sg *servedGraph) ref(state int, algo string, src int32, damping float64) *reference {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	key := fmt.Sprintf("%d|%s|%d|%g", state, algo, src, damping)
	if r, ok := sg.refs[key]; ok {
		return r
	}
	m := sg.states[state]
	r := &reference{}
	switch algo {
	case "bfs":
		r.dist = shortestPaths(m, src, true)
	case "sssp":
		r.dist = shortestPaths(m, src, false)
	case "cc":
		r.labels = componentMins(m.n, m.forEdge)
	case "pagerank":
		r.ranks = powerIteration(m.n, m.forEdge, servePRIters, damping)
	}
	sg.refs[key] = r
	return r
}

// shuffleSegments permutes the queries between mutations, redrawing until
// every repeated query comes at least two requests after its first
// occurrence.
func shuffleSegments(round []step, rng *rand.Rand) []step {
	out := append([]step(nil), round...)
	for lo := 0; lo < len(out); {
		hi := lo
		for hi < len(out) && out[hi].mutate == 0 {
			hi++
		}
		seg := out[lo:hi]
		for {
			rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
			if repeatsSpaced(seg) {
				break
			}
		}
		lo = hi + 1
	}
	return out
}

func repeatsSpaced(seg []step) bool {
	first := map[step]int{}
	for i, st := range seg {
		if f, ok := first[st]; !ok {
			first[st] = i
		} else if i-f < 2 {
			return false
		}
	}
	return true
}

// stateAt is the graph state a round position sees: 1 between the forward
// mutation and its revert.
func stateAt(round []step, pos int) int {
	s := 0
	for i := 0; i < pos; i++ {
		switch round[i].mutate {
		case 1:
			s = 1
		case 2:
			s = 0
		}
	}
	return s
}

// check tests one served answer.
func (sg *servedGraph) check(r served) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d", r.status)
	}
	if r.mut != nil {
		want := sg.stats[r.st.mutate-1]
		got := graph.ApplyStats{Inserted: r.mut.Inserted, Deleted: r.mut.Deleted, DupInserts: r.mut.DupInserts, AbsentDeletes: r.mut.AbsentDeletes, SelfLoops: r.mut.SelfLoops}
		if got != want {
			return fmt.Errorf("mutate stats %+v, model says %+v", got, want)
		}
		return nil
	}
	qr := r.query
	if qr.Degraded || (qr.Engine != "gpu" && qr.Engine != "cache") {
		return fmt.Errorf("answered by %s (degraded=%v)", qr.Engine, qr.Degraded)
	}
	state := stateAt(sg.round, r.pos)
	m := sg.states[state]
	src := sg.srcs[r.st.src]
	res := qr.Result
	switch r.st.algo {
	case "bfs", "sssp":
		unit := r.st.algo == "bfs"
		if r.st.full {
			dist := res.Levels
			if !unit {
				dist = mapUnreached(res.Dist, cpualgo.InfDist)
			}
			return checkPaths(m.n, m.forEdge, src, dist, unit)
		}
		maxD, reached := pathSummary(sg.ref(state, r.st.algo, src, 0).dist)
		got := res.MaxFiniteDist
		if unit {
			got = res.Depth
		}
		if got != maxD || res.Reached != reached {
			return fmt.Errorf("%s summary depth %d reached %d, want %d and %d", r.st.algo, got, res.Reached, maxD, reached)
		}
	case "cc":
		if r.st.full {
			return checkLabels(m.n, m.forEdge, res.Labels)
		}
		if want := countComponents(sg.ref(state, "cc", 0, 0).labels); res.Components != want {
			return fmt.Errorf("cc reports %d components, want %d", res.Components, want)
		}
	case "pagerank":
		want := sg.ref(state, "pagerank", 0, r.st.damping).ranks
		if r.st.full {
			return checkRanks(res.Ranks, want)
		}
		if err := checkRankSum(res.RankSum); err != nil {
			return err
		}
		top := want[0]
		for _, x := range want {
			top = math.Max(top, x)
		}
		if t := res.TopVertex; t < 0 || int(t) >= len(want) || want[t] < top*(1-1e-3) {
			return fmt.Errorf("top vertex %d is not a highest-ranked vertex", t)
		}
	}
	return nil
}

// shortestPaths is the benchmark's own BFS (unit) or Dijkstra over a model.
func shortestPaths(m *edgeModel, src int32, unit bool) []int32 {
	dist := make([]int32, m.n)
	for i := range dist {
		dist[i] = unreached
	}
	dist[src] = 0
	done := make([]bool, m.n)
	// A bucket queue: weights are small positive integers.
	buckets := [][]int32{{src}}
	for d := 0; d < len(buckets); d++ {
		for i := 0; i < len(buckets[d]); i++ {
			u := buckets[d][i]
			if done[u] || dist[u] != int32(d) {
				continue
			}
			done[u] = true
			for v, w := range m.out[u] {
				if unit {
					w = 1
				}
				nd := int32(d) + w
				if dist[v] == unreached || nd < dist[v] {
					dist[v] = nd
					for len(buckets) <= int(nd) {
						buckets = append(buckets, nil)
					}
					buckets[nd] = append(buckets[nd], v)
				}
			}
		}
	}
	return dist
}

// checkPhase checks every answer of a phase; it returns the failed and
// wrong counts.
func checkPhase(p *servePhase) (failed, wrong int) {
	for _, c := range p.clients {
		for _, r := range c.log {
			if err := c.sg.check(r); err != nil {
				failed++
				if r.err == nil && r.status == http.StatusOK {
					wrong++
				}
				fmt.Printf("# %s %s request wrong: %v\n", c.sg.name, describe(r.st), err)
			}
		}
		for i := range c.roundCycles {
			if c.roundCycles[i] != c.roundCycles[0] || c.roundHits[i] != c.roundHits[0] {
				wrong++
				fmt.Printf("# %s rounds differ: cycles %v hits %v\n", c.sg.name, c.roundCycles, c.roundHits)
				break
			}
		}
	}
	return failed, wrong
}

func describe(st step) string {
	if st.mutate != 0 {
		return fmt.Sprintf("mutate#%d", st.mutate)
	}
	if st.algo == "pagerank" {
		return fmt.Sprintf("pagerank(k=%d,d=%g)", st.k, st.damping)
	}
	return fmt.Sprintf("%s(src#%d,k=%d,full=%v)", st.algo, st.src, st.k, st.full)
}

func runServe(cfg config) (*report, error) {
	rep := newReport()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	epoch := time.Now()
	var setupRec *recorder
	if cfg.trace {
		setupRec = newRecorder(0, epoch)
	}
	var ss *serverSet
	var buildMS []float64
	setup := &setupTimer{build: func() (func(), error) {
		x, b, err := startServer(cfg.outDir, setupRec)
		if err != nil {
			return nil, err
		}
		buildMS = append(buildMS, b)
		if ss == nil {
			ss = x
			return nil, nil
		}
		return x.stop, nil
	}}
	err := setup.sample(setupRepeats)
	if ss != nil {
		defer ss.stop()
	}
	if err != nil {
		return nil, err
	}
	rng, order := rand.New(rand.NewSource(serveBatchSeed)), rand.New(rand.NewSource(cfg.seed))
	for _, sg := range ss.graphs {
		sg.prepare(rng, order)
	}

	// One untimed round per client uploads the graphs to both devices'
	// caches and settles lazily built state.
	warm, err := runServePhase(ss, time.Nanosecond, false, epoch, nil)
	if err != nil {
		return nil, err
	}
	if f, w := checkPhase(warm); f+w > 0 {
		return nil, fmt.Errorf("warm-up round failed %d requests", f)
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	untraced, err := runServePhase(ss, budget, false, epoch, func() error { return setup.sample(1) })
	if err != nil {
		return nil, err
	}
	rep.attempted = len(untraced.all())
	rep.failed, rep.wrong = checkPhase(untraced)
	lat := untraced.latencies()
	var cycles int64
	for _, c := range untraced.clients {
		cycles += c.roundCycles[0]
		fmt.Printf("# %s rounds=%d ops/round=%d cache_hits/round=%d\n", c.sg.name, len(c.roundCycles), len(c.sg.round), c.roundHits[0])
	}
	untraced.printClasses()
	rep.e2e("setup_s", "s", setup.seconds())
	rep.e2e("ops_per_s", "1/s", median(untraced.rate))
	rep.e2e("latency_p50_ms", "ms", percentile(lat, 0.5))
	rep.e2e("latency_p90_ms", "ms", percentile(lat, 0.9))
	rep.e2e("cpu_ms_per_op", "ms", median(untraced.cpuPerOp))
	rep.e2e("sim_cycles", "cycles", float64(cycles))
	rep.e2e("peak_rss_mb", "MB", peakRSSMB())
	if !cfg.trace {
		return rep, nil
	}

	traced, err := runServePhase(ss, budget, true, epoch, nil)
	if err != nil {
		return nil, err
	}
	f, w := checkPhase(traced)
	rep.attempted += len(traced.all())
	rep.failed += f
	rep.wrong += w
	var qwait, exec, httpMS, afterMut, mutMS []float64
	var bytes, queries float64
	var hits, runs, retries int
	for _, c := range traced.clients {
		lastEpoch := map[int]int64{}
		for i, r := range c.log {
			if r.mut != nil {
				mutMS = append(mutMS, ms(r.latency))
				continue
			}
			qr := r.query
			if qr == nil {
				continue
			}
			queries++
			bytes += float64(r.bytes)
			retries += qr.Retries
			qw, ex := qr.QueueWaitMillis, qr.ExecMillis
			if qr.Engine == "gpu" {
				qwait, exec = append(qwait, qw), append(exec, ex)
				if i < len(c.sg.round) {
					runs++
				}
				if e, ok := lastEpoch[qr.Device]; ok && e != qr.Epoch {
					afterMut = append(afterMut, ex)
				}
				lastEpoch[qr.Device] = qr.Epoch
			} else {
				qw, ex = 0, 0
			}
			if qr.Cached && i < len(c.sg.round) {
				hits++
			}
			httpMS = append(httpMS, ms(r.latency)-qw-ex)
		}
	}
	rep.layer("serve.queue_wait_ms.p50", "ms", percentile(qwait, 0.5))
	rep.layer("serve.queue_wait_ms.p90", "ms", percentile(qwait, 0.9))
	rep.layer("serve.exec_ms.p50", "ms", percentile(exec, 0.5))
	rep.layer("serve.exec_ms.p90", "ms", percentile(exec, 0.9))
	rep.layer("serve.http_ms.p50", "ms", median(httpMS))
	rep.layer("serve.response_kb", "KB", bytes/queries/1024)
	rep.layer("serve.cache_hits", "count", float64(hits))
	rep.layer("serve.device_runs", "count", float64(runs))
	rep.layer("serve.exec_ms_after_mutate", "ms", median(afterMut))
	rep.layer("serve.mutate_ms", "ms", median(mutMS))
	rep.layer("resilient.retries", "count", float64(retries))
	if fams, err := serve.ScrapeMetrics(ss.url); err == nil {
		for _, fam := range fams {
			if fam.Name == "maxwarp_serve_device_recycles_total" {
				for _, s := range fam.Samples {
					rep.layer("serve.recycles", "count", s.Value)
				}
			}
		}
	}
	rep.layer("gengraph.build_ms", "ms", median(buildMS))
	n := float64(len(untraced.all()))
	rep.layer("go.alloc_mb_per_op", "MB", float64(untraced.goUse.allocBytes)/(1<<20)/n)
	rep.layer("go.gc_cycles", "count", float64(untraced.goUse.gcCycles))
	var ratios []float64
	for i, c := range traced.clients {
		ratios = append(ratios, meanLatency(c.log)/meanLatency(untraced.clients[i].log))
	}
	rep.layer("trace.overhead", "ratio", mean(ratios)-1)
	recs := []*recorder{setupRec}
	for _, c := range traced.clients {
		recs = append(recs, c.rec)
	}
	if err := finishTrace(cfg, rep, recs); err != nil {
		return nil, err
	}
	zeroLayers(rep)
	return rep, nil
}
