package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/fabric"
	"repro/internal/layio"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// engineWorkload drives the layout engine through its library API, the way
// the fpgapr CLI does: netlist in, verified layout bytes out. Runs are
// serial — one annealing chain, the ordered router, one core busy.
type engineWorkload struct {
	designs  []string
	tracks   int
	vtracks  int // vertical tracks per column; 0 keeps arch.Default's
	moves    int // annealing moves per cell per temperature
	temps    int // temperature cap
	repair   int // zero-temperature repair passes; 0 keeps core's default
	setups   int // set-up repetitions behind setup_s
	hitReads int // reloads of each saved layout per pass
}

// archFor sizes the array exactly as the batch flows do (exper.ArchFor) and,
// for a starved instance, cuts the vertical tracks per column.
func (w engineWorkload) archFor(nl *netlist.Netlist) (*arch.Arch, error) {
	a, err := exper.ArchFor(nl, w.tracks)
	if err != nil || w.vtracks == 0 {
		return a, err
	}
	p := arch.Default(a.Rows, a.Cols, w.tracks)
	p.VTracks = w.vtracks
	return arch.New(p)
}

func (w engineWorkload) config(seed int64, mc metrics.Collector) core.Config {
	return core.Config{Seed: seed, MovesPerCell: w.moves, MaxTemps: w.temps, RepairPasses: w.repair,
		Chains: 1, Metrics: mc}
}

// seedsPerRun is the number of annealing seeds an engine run cycles through,
// one per pass; a run does at least that many passes. The quality metrics
// pool the layouts of every seed, so they do not hang on one seed's luck.
const seedsPerRun = 4

// annealSeeds are a run's annealing seeds, a function of -seed alone.
func annealSeeds(seed int64) [seedsPerRun]int64 {
	var s [seedsPerRun]int64
	for i := range s {
		s[i] = seed*seedsPerRun + int64(i)
	}
	return s
}

// flowRun is one design taken from netlist to layout bytes, with the wall
// time of each stage.
type flowRun struct {
	nl  *netlist.Netlist
	a   *arch.Arch
	opt *core.Optimizer
	res core.Result

	layout []byte
	hash   string

	wall, netgen, arch, construct, run, serialize time.Duration
}

// flow runs one design end to end. Only the optimizer's own calls happen
// between the clock reads; the hash is taken after the wall time stops.
func (w engineWorkload) flow(design string, seed int64, tr *tracer, col *layerCollector, run string) (flowRun, error) {
	var mc metrics.Collector
	if col != nil {
		mc = col
	}
	var f flowRun
	t0 := time.Now()
	root := tr.start(run, "flow", 0)
	defer tr.stop(root)
	nl, err := exper.Design(design)
	t1 := time.Now()
	tr.add(run, "netgen", root, t0, t1)
	if err != nil {
		return f, err
	}
	a, err := w.archFor(nl)
	t2 := time.Now()
	tr.add(run, "arch", root, t1, t2)
	if err != nil {
		return f, err
	}
	sp := tr.start(run, "core.new", root)
	if col != nil {
		col.within(run, sp)
	}
	o, err := core.New(a, nl, w.config(seed, mc))
	t3 := time.Now()
	tr.stop(sp)
	if err != nil {
		return f, err
	}
	sp = tr.start(run, "run", root)
	if col != nil {
		col.within(run, sp)
	}
	o, res := o.RunParallel()
	t4 := time.Now()
	tr.stop(sp)
	var buf bytes.Buffer
	err = layio.Write(&buf, o.P, o.Rts)
	t5 := time.Now()
	tr.add(run, "serialize", root, t4, t5)
	if err != nil {
		return f, err
	}
	return flowRun{
		nl: nl, a: a, opt: o, res: res,
		layout: buf.Bytes(), hash: exper.LayoutHash(o),
		wall: t5.Sub(t0), netgen: t1.Sub(t0), arch: t2.Sub(t1),
		construct: t3.Sub(t2), run: t4.Sub(t3), serialize: t5.Sub(t4),
	}, nil
}

// check verifies a finished flow outside any timed span: every optimizer
// invariant from scratch (placement, fabric ownership, G/D counts, the
// incremental timing view) and, for a fully routed layout, the independent
// post-layout timing analysis, whose agreement with the in-loop model it
// returns (0 when the layout is not fully routed and so cannot be analyzed).
func check(f flowRun) (float64, error) {
	if err := f.opt.Check(); err != nil {
		return 0, err
	}
	if !f.res.FullyRouted {
		return 0, nil
	}
	v, err := timing.Verify(f.opt.P, f.opt.Rts, f.res.WCD)
	if err != nil {
		return 0, err
	}
	if v.Agreement < 0.8 || v.Agreement > 1.05 {
		return 0, fmt.Errorf("in-loop vs independent timing agreement %.3f outside [0.8, 1.05]", v.Agreement)
	}
	return v.Agreement, nil
}

// reload loads a saved layout the way a user reloads an archived one:
// read the file, then parse and validate it against the netlist and array.
func reload(path string, a *arch.Arch, nl *netlist.Netlist) (*layout.Placement, []fabric.NetRoute, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return layio.Read(bytes.NewReader(data), a, nl)
}

// sameBytes reports whether a reloaded layout serializes to exactly the
// bytes it was loaded from. (exper.LayoutHash is no round-trip check: it
// also hashes the trunk fields of nets without a trunk, which the layout
// format does not carry.)
func sameBytes(p *layout.Placement, rts []fabric.NetRoute, want []byte) bool {
	var buf bytes.Buffer
	return layio.Write(&buf, p, rts) == nil && bytes.Equal(buf.Bytes(), want)
}

// seedRun is what a design's first flow with one annealing seed leaves for
// the quality metrics and for the determinism check of later passes.
type seedRun struct {
	hash      string
	res       core.Result
	nets      int
	agreement float64
}

// designStats gathers one design's samples over the passes of a run.
type designStats struct {
	walls, serialize []float64 // ms
	seeds            [seedsPerRun]*seedRun
}

// setup times the set-up of every design once: the netlist, the array and
// the optimizer's initial state (random placement, constructive routing,
// timing fill). It returns the stage times summed over the designs and each
// design's initial-state hash.
func (w engineWorkload) setup(seed int64) (total, netgen, construct time.Duration, hashes []string, err error) {
	for _, d := range w.designs {
		t0 := time.Now()
		nl, err := exper.Design(d)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		t1 := time.Now()
		a, err := w.archFor(nl)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		t2 := time.Now()
		o, err := core.New(a, nl, w.config(seed, nil))
		if err != nil {
			return 0, 0, 0, nil, err
		}
		t3 := time.Now()
		total += t3.Sub(t0)
		netgen += t1.Sub(t0)
		construct += t3.Sub(t2)
		hashes = append(hashes, exper.LayoutHash(o))
	}
	return total, netgen, construct, hashes, nil
}

func (w engineWorkload) run(rc runConfig) (outcome, error) {
	out := newOutcome()
	var col *layerCollector
	if rc.tracer != nil {
		col = newLayerCollector(rc.tracer)
	}
	seeds := annealSeeds(rc.seed)
	var setup, setupNetgen, setupCore []float64
	var initial []string
	stats := make([]designStats, len(w.designs))
	var cold, hits []float64
	var walls, prepare, construct, running, deliver float64 // Σ over all flows, ms
	start := time.Now()
	var passDur time.Duration
	passes := 0
	for ; passes < seedsPerRun || time.Since(start)+passDur <= rc.budget; passes++ {
		ps := time.Now()
		si := passes % seedsPerRun
		// Set-up rounds are spread over the run, one batch per pass, so
		// their median is not hostage to one slow moment.
		for r := 0; r < w.setups; r++ {
			runtime.GC()
			su, ng, cn, hashes, err := w.setup(seeds[0])
			if err != nil {
				return out, err
			}
			setup = append(setup, su.Seconds())
			setupNetgen = append(setupNetgen, ms(ng))
			setupCore = append(setupCore, ms(cn))
			if initial == nil {
				initial = hashes
			} else if !slices.Equal(hashes, initial) {
				out.fail("initial state differs between set-ups")
			}
		}
		for i, d := range w.designs {
			out.attempted++
			runtime.GC() // every flow starts from the same heap
			f, err := w.flow(d, seeds[si], rc.tracer, col, fmt.Sprintf("%s/%d", d, passes))
			if err != nil {
				out.fail("%s: %v", d, err)
				continue
			}
			s := &stats[i]
			s.walls = append(s.walls, ms(f.wall))
			s.serialize = append(s.serialize, ms(f.serialize))
			cold = append(cold, ms(f.wall))
			walls += ms(f.wall)
			prepare += ms(f.netgen + f.arch)
			construct += ms(f.construct)
			running += ms(f.run)
			deliver += ms(f.serialize)
			agreement, err := check(f)
			if err != nil {
				out.fail("%s: %v", d, err)
			}
			if r := s.seeds[si]; r == nil {
				s.seeds[si] = &seedRun{hash: f.hash, res: f.res, nets: f.nl.NumNets(), agreement: agreement}
			} else if f.hash != r.hash {
				out.fail("%s: layout hash of seed %d differs between passes", d, seeds[si])
			}

			path := filepath.Join(rc.work, d+".layout")
			if err := os.WriteFile(path, f.layout, 0o644); err != nil {
				return out, err
			}
			runtime.GC()
			for k := 0; k < w.hitReads; k++ {
				out.attempted++
				t0 := time.Now()
				p, rts, err := reload(path, f.a, f.nl)
				el := time.Since(t0)
				if err != nil {
					out.fail("%s: reload: %v", d, err)
					continue
				}
				hits = append(hits, ms(el))
				if k == 0 && !sameBytes(p, rts, f.layout) {
					out.fail("%s: reloaded layout does not serialize to the saved bytes", d)
				}
			}
		}
		passDur = time.Since(ps)
	}
	if len(cold) == 0 {
		return out, fmt.Errorf("no design completed")
	}

	// Quality pools every seed's layout; work counts are the mean over the
	// seeds of one flow's, summed over the designs.
	v := out.values
	var wall, moves, netsAll, routed float64
	var wcd, agreement []float64
	var routeFailed, annealMoves, repairMoves, repairFixed float64
	for i := range stats {
		s := &stats[i]
		if len(s.walls) == 0 {
			continue
		}
		wall += median(s.walls) / 1000
		v["layio.write_ms"] += median(s.serialize)
		var runs []*seedRun
		for _, r := range s.seeds {
			if r != nil {
				runs = append(runs, r)
			}
		}
		per := 1 / float64(len(runs))
		for _, r := range runs {
			res := r.res
			moves += per * float64(res.Anneal.TotalMoves+res.RepairMoves)
			netsAll += float64(r.nets)
			routed += float64(r.nets - res.D)
			wcd = append(wcd, res.WCD)
			routeFailed += per * float64(res.RouteFailed)
			annealMoves += per * float64(res.Anneal.TotalMoves)
			repairMoves += per * float64(res.RepairMoves)
			repairFixed += per * float64(res.RepairFixed)
			if r.agreement > 0 {
				agreement = append(agreement, r.agreement)
			}
		}
	}
	v["setup_s"] = median(setup)
	v["flow_wall_s"] = wall
	v["moves_per_s"] = moves / wall
	v["cold_p50_ms"] = median(cold)
	v["request.cold_tail_ms"] = tail(cold)
	v["hit_p50_ms"] = median(hits)
	v["request.hit_tail_ms"] = tail(hits)
	v["critical_path_ps"] = geomean(wcd)
	v["routed_pct"] = 100 * routed / netsAll
	logf("%s: %d pass(es), %d designs, flow %.2f s, %.0f moves/s", rc.name, passes, len(w.designs), wall, moves/wall)

	if col == nil {
		return out, nil
	}
	col.layerValues(v, passes)
	v["netgen.generate_ms"] = median(setupNetgen)
	v["core.new_ms"] = median(setupCore)
	v["droute.init_failed"] = routeFailed
	v["anneal.moves"] = annealMoves
	v["repair.moves"] = repairMoves
	v["repair.fixed"] = repairFixed
	v["timing.verify_agreement"] = 0
	if len(agreement) > 0 {
		v["timing.verify_agreement"] = geomean(agreement)
	}
	v["request.prepare_share"] = prepare / walls
	v["request.queue_share"] = 0 // a library call has no queue
	v["request.run_share"] = (construct + running) / walls
	v["request.deliver_share"] = deliver / walls
	for _, name := range serveOnly {
		v[name] = 0
	}
	// The run span is covered by the engine's own anneal and repair phase
	// records; what they miss is time the benchmark cannot attribute.
	t := col.Totals()
	phases := t.PhaseDur[metrics.PhaseAnneal] + t.PhaseDur[metrics.PhaseRepair]
	v["trace.span_coverage"] = (prepare + construct + ms(phases) + deliver) / walls
	return out, nil
}

// serveOnly are the per-layer metrics of the serving stack, which the engine
// workloads never reach.
var serveOnly = []string{
	"server.optimizer_runs", "server.cache_hit_responses", "fleet.remote_share",
	"fleet.leases_granted", "fleet.reenqueues", "store.wal_records_per_job",
	"store.wal_bytes_per_job", "store.disk_hits", "portfolio.dedup_hits",
}
