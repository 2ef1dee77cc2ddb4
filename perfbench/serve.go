package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/layio"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/timing"
)

// serveMix drives the fpgaprd service in process over loopback HTTP: a
// coordinator with a WAL store, one in-process worker and one fleet worker
// leasing jobs over the wire protocol. Two closed-loop clients (X-Client-ID a
// and b) each hold one connection and send their next request once the
// previous one's layout bytes are in; completion is read from the job's SSE
// stream. Life 1 starts on an empty data directory; life 2 restarts on it and
// serves repeats from the disk blobs. Client b also sends four portfolios:
// two identical seeds4 ones and two identical seed × backend ones.
//
// Client b is client a's background load: it keeps one request in flight
// until a's list is done. A cold tiny job takes about 6 ms on the in-process
// worker and 9.5 ms on the fleet worker, and which one runs it depends on
// which one holds b's job. With b busy throughout, the fleet's share of tiny
// jobs stays near a third from run to run; were b to stop midway, that share
// would swing with the timing of the two clients and the latency median
// would jump between the two speeds.
type serveMix struct {
	coldTiny int // client a: cold tiny jobs, distinct seeds
	repeats  int // client a: repeats of earlier cold tiny jobs (memory hits)
	coldS1   int // client b: cold s1 jobs, distinct seeds; more than b sends before a is done
	cancels  int // client b: submit-then-DELETE jobs
	diskHits int // life 2: repeats of distinct life-1 tiny jobs, split over both clients
	restarts int // further restarts, timed for the set-up median
	refKeys  int // cold jobs whose served bytes are checked against local runs
}

// refS1 is how many of the reference jobs are s1 jobs; they lead client b's
// list, so they are sent however soon client a is done.
const refS1 = 2

// passTimeout bounds one pass of the mix, so a stuck request fails the run
// instead of hanging it. A pass takes a few seconds.
var passTimeout = time.Minute

// Engine effort of every job in the mix: small, so the service's own work
// (admission, WAL fsyncs, scheduling, leases, serialization) is a visible
// share of each request.
const (
	mixMoves = 1
	mixTemps = 10
)

type reqKind int

const (
	kindCold reqKind = iota
	kindHit
	kindPortfolio
	kindCancel
)

// request is one planned client request.
type request struct {
	kind   reqKind
	design string
	seed   int64 // job seed (cold and cancel jobs)
	orig   int   // index into plan.cold of the job a hit repeats
	body   []byte
}

// plan is one pass's request lists, a pure function of (seed, pass).
type plan struct {
	cold  []request    // every cold job: tiny first, then s1
	a, b  []request    // life 1, per client
	life2 [2][]request // life 2, per client
}

func jobBody(design string, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"design":%q,"config":{"seed":%d,"moves_per_cell":%d,"max_temps":%d}}`,
		design, seed, mixMoves, mixTemps))
}

func (m serveMix) plan(seed int64, pass int) plan {
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	// Job seeds are distinct within a pass and across passes, and stay clear
	// of the seeds4 preset's 1..4, so every cold request is a cache miss.
	base := (seed*16 + int64(pass)) * 100_000
	var p plan
	for i := 0; i < m.coldTiny; i++ {
		s := base + 10 + int64(i)
		p.cold = append(p.cold, request{kind: kindCold, design: "tiny", seed: s, body: jobBody("tiny", s)})
	}
	for i := 0; i < m.coldS1; i++ {
		s := base + 50_000 + int64(i)
		p.cold = append(p.cold, request{kind: kindCold, design: "s1", seed: s, body: jobBody("s1", s)})
	}

	// Client a: the tiny jobs in order, each repeat placed after its
	// original at a random later position.
	after := make([][]request, m.coldTiny)
	for r := 0; r < m.repeats && m.coldTiny > 0; r++ {
		orig := rng.Intn(m.coldTiny)
		slot := orig + rng.Intn(m.coldTiny-orig)
		after[slot] = append(after[slot], request{kind: kindHit, design: "tiny", orig: orig, body: p.cold[orig].body})
	}
	for i := 0; i < m.coldTiny; i++ {
		p.a = append(p.a, p.cold[i])
		p.a = append(p.a, after[i]...)
	}

	// Client b: the reference s1 jobs, then the portfolios and cancels
	// shuffled, then the other s1 jobs. Client b is client a's background
	// load and stops once a is done, so it has more s1 jobs than it can send
	// in that time.
	s1 := p.cold[m.coldTiny:]
	nRef := min(refS1, len(s1))
	var mid []request
	cfg := fmt.Sprintf(`"config":{"moves_per_cell":%d,"max_temps":%d}`, mixMoves, mixTemps)
	preset := []byte(`{"design":"s1",` + cfg + `,"matrix":{"preset":"seeds4"}}`)
	axes := []byte(fmt.Sprintf(`{"design":"s1",%s,"matrix":{"seeds":[%d,%d],"backends":["ordered","lagrange"]}}`,
		cfg, base+90_000, base+90_001))
	for _, body := range [][]byte{preset, preset, axes, axes} {
		mid = append(mid, request{kind: kindPortfolio, design: "s1", body: body})
	}
	for i := 0; i < m.cancels; i++ {
		s := base + 80_000 + int64(i)
		mid = append(mid, request{kind: kindCancel, design: "s1", seed: s, body: jobBody("s1", s)})
	}
	rng.Shuffle(len(mid), func(i, j int) { mid[i], mid[j] = mid[j], mid[i] })
	p.b = append(append(append(p.b, s1[:nRef]...), mid...), s1[nRef:]...)

	// Life 2: distinct tiny jobs of life 1, alternating between the clients.
	for i, orig := range rng.Perm(m.coldTiny) {
		if i == m.diskHits {
			break
		}
		p.life2[i%2] = append(p.life2[i%2], request{kind: kindHit, design: "tiny", orig: orig, body: p.cold[orig].body})
	}
	return p
}

// sample is the client's record of one request.
type sample struct {
	req    request
	status int             // HTTP status of the submission
	id     string          // job or group ID
	key    string          // cache key (single jobs)
	cached bool            // answered from the result cache
	state  server.JobState // final state
	layout [32]byte        // sha256 of the layout bytes received
	err    error

	start                        time.Time
	submit, wait, fetch, latency time.Duration // latency = submit + wait + fetch
}

// client is one closed-loop client on one keep-alive connection.
type client struct {
	id   string
	base string
	hc   *http.Client
	rec  *layerCollector // takes the engine records streamed over SSE; nil untraced
}

func newClient(id, base string, rec *layerCollector) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, base: base, hc: &http.Client{Transport: tr}, rec: rec}
}

func (c *client) send(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Client-ID", c.id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// follow reads an SSE stream to its end and returns the last state event.
// Traced clients also pass the engine's temperature and phase records on to
// their collector.
func (c *client) follow(ctx context.Context, path string) (server.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Client-ID", c.id)
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	var event string
	var state server.JobState
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || (event != "state" && !(c.rec != nil && (event == "temp" || event == "phase"))) {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("%s: event: %w", path, err)
		}
		switch {
		case event == "state":
			state = ev.State
		case ev.Temp != nil:
			c.rec.RecordTemp(*ev.Temp)
		case ev.Phase != nil:
			if p, ok := phaseByName[ev.Phase.Name]; ok {
				c.rec.RecordPhase(metrics.PhaseRecord{Phase: p, Elapsed: time.Duration(ev.Phase.ElapsedNS)})
			}
		}
	}
	return state, sc.Err()
}

// do sends one request and waits for its outcome: submit, follow the event
// stream to a terminal state, then fetch the layout bytes.
func (c *client) do(ctx context.Context, r request) sample {
	s := sample{req: r, start: time.Now()}
	coll := "/v1/jobs/"
	if r.kind == kindPortfolio {
		coll = "/v1/portfolios/"
	}
	code, body, err := c.send(ctx, http.MethodPost, strings.TrimSuffix(coll, "/"), r.body)
	s.submit = time.Since(s.start)
	s.status = code
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("submit answered %d: %s", code, bytes.TrimSpace(body))
	}
	if err == nil {
		var st struct {
			ID       string          `json:"id"`
			State    server.JobState `json:"state"`
			Cached   bool            `json:"cached"`
			CacheKey string          `json:"cache_key"`
		}
		err = json.Unmarshal(body, &st)
		s.id, s.state, s.cached, s.key = st.ID, st.State, st.Cached, st.CacheKey
	}
	if err == nil && r.kind == kindCancel {
		if code, _, err = c.send(ctx, http.MethodDelete, coll+s.id, nil); err == nil && code != http.StatusOK {
			err = fmt.Errorf("DELETE answered %d", code)
		}
	}
	if err == nil && !s.state.Terminal() {
		s.state, err = c.follow(ctx, coll+s.id+"/events")
	}
	t2 := time.Now()
	s.wait = t2.Sub(s.start) - s.submit
	if err == nil && s.state == server.StateDone && r.kind != kindCancel {
		var layout []byte
		code, layout, err = c.send(ctx, http.MethodGet, coll+s.id+"/layout", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("layout answered %d", code)
		}
		s.layout = sha256.Sum256(layout)
	}
	s.fetch = time.Since(t2)
	s.latency = s.submit + s.wait + s.fetch
	s.err = err
	return s
}

// getJSON fetches one JSON document outside any timed window.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	code, body, err := c.send(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", path, code)
	}
	return json.Unmarshal(body, v)
}

// life is one process life of the service.
type life struct {
	st  *store.Store
	srv *server.Server
	ts  *httptest.Server
	w   *fleet.Worker
}

// startLife opens the store under dir, starts the coordinator, its loopback
// listener and the fleet worker, and returns once the worker's first lease
// poll reaches the coordinator. The time taken is the life's set-up time.
func startLife(dir string) (*life, time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, 0, err
	}
	srv := server.New(server.Config{
		Workers:      1,
		QueueDepth:   64,
		CacheEntries: 4096,
		MaxJobs:      8192,
		Store:        st,
		LeaseTTL:     3 * time.Second,
	})
	polled := make(chan struct{})
	var once sync.Once
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fleet/lease" {
			once.Do(func() { close(polled) })
		}
		h.ServeHTTP(w, r)
	}))
	wk, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: ts.URL,
		Name:        "perfbench",
		Execute:     server.FleetExecutor(),
		Heartbeat:   100 * time.Millisecond,
	})
	if err != nil {
		srv.Close()
		ts.Close()
		st.Close()
		return nil, 0, err
	}
	l := &life{st: st, srv: srv, ts: ts, w: wk}
	go wk.Run()
	select {
	case <-polled:
		return l, time.Since(t0), nil
	case <-wk.Done():
		err = fmt.Errorf("fleet worker exited before its first lease poll")
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("fleet worker sent no lease poll within 30s")
	}
	l.close()
	return nil, 0, err
}

// close drains the fleet worker, stops the coordinator (which ends the
// worker's long poll), and waits for both before releasing the store.
func (l *life) close() error {
	l.w.Drain()
	l.srv.Close()
	<-l.w.Done()
	l.ts.Close()
	return l.st.Close()
}

// serve runs every request list concurrently, one closed-loop client each,
// and returns the samples per client and the makespan. With background set,
// the clients after the first are its background load: each stops sending
// once the first client's list is done, after at least one request.
func serve(ctx context.Context, clients []*client, lists [][]request, background bool) ([][]sample, time.Duration) {
	out := make([][]sample, len(clients))
	done := make(chan struct{})
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				defer close(done)
			}
			for _, r := range lists[i] {
				out[i] = append(out[i], clients[i].do(ctx, r))
				if background && i > 0 {
					select {
					case <-done:
						return
					default:
					}
				}
			}
		}(i)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// refRun is a local in-process run of a served job's configuration.
type refRun struct {
	layout    [32]byte // sha256 of the layout bytes
	res       core.Result
	write     time.Duration // layio.Write
	agreement float64       // independent timing analysis; 0 unless fully routed
}

// localRun runs a job's configuration in process, the way the service's
// executor does.
func localRun(design string, seed int64) (refRun, error) {
	var r refRun
	nl, err := exper.Design(design)
	if err != nil {
		return r, err
	}
	a, err := exper.ArchFor(nl, exper.DefaultTracks)
	if err != nil {
		return r, err
	}
	o, err := core.New(a, nl, core.Config{Seed: seed, MovesPerCell: mixMoves, MaxTemps: mixTemps})
	if err != nil {
		return r, err
	}
	o, r.res = o.RunParallel()
	var buf bytes.Buffer
	t0 := time.Now()
	if err := layio.Write(&buf, o.P, o.Rts); err != nil {
		return r, err
	}
	r.write = time.Since(t0)
	r.layout = sha256.Sum256(buf.Bytes())
	if r.res.FullyRouted {
		v, err := timing.Verify(o.P, o.Rts, r.res.WCD)
		if err != nil {
			return r, err
		}
		r.agreement = v.Agreement
	}
	return r, nil
}

// passResult is what one pass of the mix measured.
type passResult struct {
	setups     []float64          // s
	makespan   float64            // life 1, s
	moves      float64            // engine moves of every life-1 run
	cold, hits []float64          // ms
	wcd        []float64          // cold tiny jobs' worst-case delay (ps)
	nets       float64            // Σ over cold tiny jobs
	routed     float64            // Σ over cold tiny jobs
	timeline   [4]float64         // Σ over cold tiny jobs of prepare, queue, run, deliver (ms)
	latency    float64            // Σ over cold tiny jobs (ms)
	layer      map[string]float64 // per-layer values of this pass
	agreement  []float64          // reference runs' timing agreement
}

// coldKey names a cold job by its inputs.
func coldKey(r request) string { return fmt.Sprintf("%s/%d", r.design, r.seed) }

// pass serves one pass's job list; col (nil untraced) takes the engine
// records of life 1's runs.
func (m serveMix) pass(rc runConfig, col *layerCollector, out *outcome, pass int) (passResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	pr := passResult{layer: map[string]float64{}}
	p := m.plan(rc.seed, pass)
	dir := filepath.Join(rc.work, fmt.Sprintf("serve-%d", pass))
	defer os.RemoveAll(dir)

	// Life 1.
	l, setup, err := startLife(dir)
	if err != nil {
		return pr, err
	}
	pr.setups = append(pr.setups, setup.Seconds())
	clients := []*client{newClient("a", l.ts.URL, col), newClient("b", l.ts.URL, col)}
	samples, makespan := serve(ctx, clients, [][]request{p.a, p.b}, true)
	pr.makespan = makespan.Seconds()
	if len(samples[1]) == len(p.b) {
		l.close()
		return pr, fmt.Errorf("client b sent its whole list before client a was done; give it more s1 jobs")
	}
	colds := map[string]sample{}
	for _, list := range samples {
		for _, s := range list {
			if s.req.kind == kindCold {
				colds[coldKey(s.req)] = s
			}
		}
	}
	err = m.checkLife1(ctx, clients[0], p, samples, colds, &pr, out, rc.tracer)
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return pr, err
	}

	// Life 2: restart on the same directory; the repeats are read from disk.
	l, setup, err = startLife(dir)
	if err != nil {
		return pr, err
	}
	pr.setups = append(pr.setups, setup.Seconds())
	clients = []*client{newClient("a", l.ts.URL, nil), newClient("b", l.ts.URL, nil)}
	// Recovery itself reads portfolio members' blobs; count only the disk
	// hits the repeats cause.
	var before, st server.Stats
	err = clients[0].getJSON(ctx, "/statsz", &before)
	if err == nil {
		samples, _ = serve(ctx, clients, p.life2[:], false)
		err = clients[0].getJSON(ctx, "/statsz", &st)
	}
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return pr, err
	}
	diskHits := st.Cache.DiskHits - before.Cache.DiskHits
	pr.layer["store.disk_hits"] = float64(diskHits)
	repeats := 0
	for _, list := range samples {
		for _, s := range list {
			out.attempted++
			repeats++
			if err := checkHit(s, p, colds); err != nil {
				out.fail("life 2: %v", err)
				continue
			}
			pr.hits = append(pr.hits, ms(s.latency))
		}
	}
	if diskHits != int64(repeats) {
		out.fail("life 2: %d disk hits for %d repeats", diskHits, repeats)
	}

	for r := 0; r < m.restarts; r++ {
		l, setup, err := startLife(dir)
		if err != nil {
			return pr, err
		}
		pr.setups = append(pr.setups, setup.Seconds())
		if err := l.close(); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// checkHit verifies a repeat: answered 200 from the cache, done, with the
// original's bytes.
func checkHit(s sample, p plan, colds map[string]sample) error {
	orig := p.cold[s.req.orig]
	if s.err != nil {
		return fmt.Errorf("repeat of %s: %v", coldKey(orig), s.err)
	}
	if s.status != http.StatusOK || !s.cached || s.state != server.StateDone {
		return fmt.Errorf("repeat of %s answered %d cached=%v state=%s", coldKey(orig), s.status, s.cached, s.state)
	}
	if o, ok := colds[coldKey(orig)]; !ok || o.layout != s.layout {
		return fmt.Errorf("repeat of %s served other bytes than the original", coldKey(orig))
	}
	return nil
}

// checkLife1 checks every life-1 outcome after the timed window — job and
// group statuses, /statsz and the local reference runs are fetched here —
// and fills the pass's measurements.
func (m serveMix) checkLife1(ctx context.Context, c *client, p plan, samples [][]sample,
	colds map[string]sample, pr *passResult, out *outcome, tr *tracer) error {
	var st server.Stats
	if err := c.getJSON(ctx, "/statsz", &st); err != nil {
		return err
	}
	status := func(id string) (server.JobStatus, error) {
		var js server.JobStatus
		err := c.getJSON(ctx, "/v1/jobs/"+id, &js)
		return js, err
	}
	var runs int64
	keys := map[string]bool{}
	var portfolios []sample
	for _, list := range samples {
		for _, s := range list {
			out.attempted++
			if s.err != nil {
				out.fail("%s: %v", coldKey(s.req), s.err)
				continue
			}
			switch s.req.kind {
			case kindCold:
				js, err := status(s.id)
				if err != nil || s.status != http.StatusAccepted || s.state != server.StateDone ||
					js.Result == nil || js.Started == nil || js.Finished == nil {
					out.fail("cold %s: status %d, state %s, %v", coldKey(s.req), s.status, s.state, err)
					continue
				}
				if keys[s.key] {
					out.fail("cold %s: cache key seen before", coldKey(s.req))
				}
				keys[s.key] = true
				runs++
				pr.moves += float64(js.Result.Moves)
				if s.req.design != "tiny" {
					continue // how many s1 jobs client b sends varies from run to run
				}
				pr.wcd = append(pr.wcd, js.Result.WCDPs)
				pr.nets += float64(js.Nets)
				pr.routed += float64(js.Nets - js.Result.Unrouted)
				pr.cold = append(pr.cold, ms(s.latency))
				// The job's own timestamps cut the request into consecutive
				// stages: the client's send and the service's admission up
				// to the job record, queue wait, the run (including the
				// result's write-through), and delivery of the bytes.
				end := s.start.Add(s.latency)
				pr.timeline[0] += ms(js.Created.Sub(s.start))
				pr.timeline[1] += ms(js.Started.Sub(js.Created))
				pr.timeline[2] += ms(js.Finished.Sub(*js.Started))
				pr.timeline[3] += ms(end.Sub(*js.Finished))
				pr.latency += ms(s.latency)
				if tr != nil {
					root := tr.add(s.id, "request", 0, s.start, s.start.Add(s.latency))
					tr.add(s.id, "submit", root, s.start, s.start.Add(s.submit))
					wait := tr.add(s.id, "wait", root, s.start.Add(s.submit), s.start.Add(s.submit+s.wait))
					tr.add(s.id, "queue", wait, js.Created, *js.Started)
					tr.add(s.id, "run", wait, *js.Started, *js.Finished)
					tr.add(s.id, "fetch", root, s.start.Add(s.submit+s.wait), s.start.Add(s.latency))
				}
			case kindHit:
				if err := checkHit(s, p, colds); err != nil {
					out.fail("%v", err)
					continue
				}
				pr.hits = append(pr.hits, ms(s.latency))
			case kindCancel:
				// A cancel may land after the job finished; either end is
				// correct, and neither is a failure.
				js, err := status(s.id)
				if err != nil || (s.state != server.StateCanceled && s.state != server.StateDone) {
					out.fail("cancel %s: state %s, %v", coldKey(s.req), s.state, err)
					continue
				}
				if js.Started != nil {
					runs++ // reached a worker before the cancel did
				}
				if js.Result != nil {
					pr.moves += float64(js.Result.Moves)
				}
			case kindPortfolio:
				portfolios = append(portfolios, s)
			}
		}
	}

	// Portfolios: the second of each identical pair must be served whole from
	// the cache, with the first one's champion bytes.
	champion := map[string][32]byte{}
	for _, s := range portfolios {
		var gs server.GroupStatus
		err := c.getJSON(ctx, "/v1/portfolios/"+s.id, &gs)
		if err != nil || s.state != server.StateDone || gs.Champion == nil {
			out.fail("portfolio %s: state %s, %v", s.id, s.state, err)
			continue
		}
		body := string(s.req.body)
		first, second := champion[body]
		for _, mem := range gs.Members {
			if mem.Cached || mem.DupOf != nil {
				continue
			}
			if second {
				out.fail("portfolio %s: member %d ran again", s.id, mem.Index)
			}
			js, err := status(mem.Job)
			if err != nil || js.Result == nil {
				out.fail("portfolio %s member %d: %v", s.id, mem.Index, err)
				continue
			}
			runs++
			pr.moves += float64(js.Result.Moves)
		}
		if second && first != s.layout {
			out.fail("portfolio %s: champion bytes differ from the identical first portfolio", s.id)
		}
		champion[body] = s.layout
	}

	if st.Runs != runs {
		out.fail("statsz: optimizer_runs %d, want %d", st.Runs, runs)
	}
	if st.Fleet.LeaseExpiries != 0 || st.Fleet.Reenqueues != 0 || st.WALErrors != 0 {
		out.fail("statsz: lease_expiries %d, reenqueues %d, wal_errors %d, want 0",
			st.Fleet.LeaseExpiries, st.Fleet.Reenqueues, st.WALErrors)
	}
	l := pr.layer
	l["anneal.moves"] = pr.moves
	l["server.optimizer_runs"] = float64(st.Runs)
	l["server.cache_hit_responses"] = float64(st.CacheHits)
	l["fleet.remote_share"] = ratio(float64(st.Fleet.RemoteCompletions), float64(st.Runs))
	l["fleet.leases_granted"] = float64(st.Fleet.LeasesGranted)
	l["fleet.reenqueues"] = float64(st.Fleet.Reenqueues)
	l["portfolio.dedup_hits"] = float64(st.Portfolio.DedupHits)
	if st.Store != nil {
		l["store.wal_records_per_job"] = ratio(float64(st.Store.WALRecords), float64(st.Submitted))
		l["store.wal_bytes_per_job"] = ratio(float64(st.Store.WALBytes), float64(st.Submitted))
	}

	// The served bytes of the first cold jobs must equal local runs of the
	// same configuration: refKeys jobs, refS1 of them s1 when there are any.
	nS1 := min(refS1, m.coldS1)
	var refs []request
	refs = append(refs, p.cold[:min(m.refKeys-nS1, m.coldTiny)]...)
	refs = append(refs, p.cold[m.coldTiny:m.coldTiny+nS1]...)
	for _, r := range refs {
		out.attempted++
		ref, err := localRun(r.design, r.seed)
		if err != nil {
			out.fail("reference %s: %v", coldKey(r), err)
			continue
		}
		if s, ok := colds[coldKey(r)]; !ok || s.layout != ref.layout {
			out.fail("%s: served bytes differ from a local run", coldKey(r))
		}
		l["droute.init_failed"] += float64(ref.res.RouteFailed)
		l["repair.moves"] += float64(ref.res.RepairMoves)
		l["repair.fixed"] += float64(ref.res.RepairFixed)
		l["layio.write_ms"] += ms(ref.write)
		if ref.agreement > 0 {
			pr.agreement = append(pr.agreement, ref.agreement)
		}
	}
	return nil
}

// mixDesigns are the netlists the mix's jobs name.
var mixDesigns = []string{"tiny", "s1"}

func (m serveMix) run(rc runConfig) (outcome, error) {
	out := newOutcome()
	var col *layerCollector
	if rc.tracer != nil {
		col = newLayerCollector(nil) // records arrive after the fact: no spans
	}

	// The service generates each job's netlist at submission; time that layer
	// on the mix's designs here, where the benchmark can call it.
	var netgen []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for _, d := range mixDesigns {
			if _, err := exper.Design(d); err != nil {
				return out, err
			}
		}
		netgen = append(netgen, ms(time.Since(t0)))
	}

	var prs []passResult
	start := time.Now()
	var passDur time.Duration
	for pass := 0; pass == 0 || time.Since(start)+passDur <= rc.budget; pass++ {
		ps := time.Now()
		runtime.GC() // every pass starts from the same heap
		pr, err := m.pass(rc, col, &out, pass)
		if err != nil {
			return out, err
		}
		prs = append(prs, pr)
		passDur = time.Since(ps)
	}

	var setups, makespans, rates, cold, hits, agreement []float64
	var latency float64
	var timeline [4]float64
	layer := map[string]float64{}
	for i := range prs {
		pr := &prs[i]
		setups = append(setups, pr.setups...)
		makespans = append(makespans, pr.makespan)
		rates = append(rates, pr.moves/pr.makespan)
		cold = append(cold, pr.cold...)
		hits = append(hits, pr.hits...)
		agreement = append(agreement, pr.agreement...)
		latency += pr.latency
		for k := range timeline {
			timeline[k] += pr.timeline[k]
		}
		for k, x := range pr.layer {
			layer[k] += x / float64(len(prs))
		}
	}
	if len(cold) == 0 || len(hits) == 0 {
		return out, fmt.Errorf("no cold job or repeat completed")
	}
	v := out.values
	v["setup_s"] = median(setups)
	v["flow_wall_s"] = median(makespans)
	v["moves_per_s"] = median(rates)
	v["cold_p50_ms"] = median(cold)
	v["request.cold_tail_ms"] = tail(cold)
	v["hit_p50_ms"] = median(hits)
	v["request.hit_tail_ms"] = tail(hits)
	// Quality comes from the first pass's cold tiny jobs alone, fixed by the
	// seed; how many passes fit in the run does not change it.
	v["critical_path_ps"] = geomean(prs[0].wcd)
	v["routed_pct"] = 100 * prs[0].routed / prs[0].nets
	logf("%s: %d pass(es), life 1 %.2f s, %d cold p50 %.2f ms, %d hits p50 %.2f ms",
		rc.name, len(prs), median(makespans), len(cold), median(cold), len(hits), median(hits))

	if col == nil {
		return out, nil
	}
	col.layerValues(v, len(prs))
	for k, x := range layer {
		v[k] = x
	}
	v["netgen.generate_ms"] = median(netgen)
	v["timing.verify_agreement"] = 0
	if len(agreement) > 0 {
		v["timing.verify_agreement"] = geomean(agreement)
	}
	v["request.prepare_share"] = timeline[0] / latency
	v["request.queue_share"] = timeline[1] / latency
	v["request.run_share"] = timeline[2] / latency
	v["request.deliver_share"] = timeline[3] / latency
	// The share of the latency the service's own job timeline accounts for.
	v["trace.span_coverage"] = (timeline[1] + timeline[2]) / latency
	return out, nil
}
