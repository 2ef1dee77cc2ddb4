package core

import (
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
)

// jEntry journals one net's pre-move route. ripped marks nets whose pins
// moved (their delays must be refreshed even if the route descriptor ends up
// bitwise identical, e.g. unrouted before and after). timed marks nets whose
// delays this move has already set.
type jEntry struct {
	id      int32
	old     fabric.NetRoute
	ripped  bool
	timed   bool
	oldMaxD float64 // pre-move worst sink delay (criticality term only)
	oldEst  float64 // pre-move unrouted-list key
}

// Propose implements anneal.Problem: apply one tentative move (cell swap /
// translation, or pinmap reassignment), cascade the incremental ripup and
// reroute, update timing, and return the cost delta. Accept or Reject must
// follow. With rejects set, a move that rejects turns down at a lower bound
// on its cost delta returns +Inf before the full timing update (settle).
func (o *Optimizer) Propose(rng *rand.Rand, rejects func(lb float64) bool) float64 {
	if !o.cfg.DisablePinmapMoves && rng.Float64() < pinmapProb {
		cell := int32(rng.Intn(o.NL.NumCells()))
		nv := uint8((int(o.P.Pm[cell]) + 1 + rng.Intn(arch.NumPinmaps-1)) % arch.NumPinmaps)
		return o.settle(o.ripPinmap(cell, nv), rejects)
	}
	// Criticality-directed selection: with probability critBias draw the swap
	// source from the cells on near-critical nets instead of uniformly.
	// critCells is empty whenever the extension is off, and the length guard
	// precedes the Float64 draw, so the RNG stream is then untouched —
	// fixed-seed runs stay bit-identical.
	if len(o.critCells) > 0 && rng.Float64() < critBias {
		cell := o.critCells[rng.Intn(len(o.critCells))]
		la := o.P.Loc[cell]
		return o.settle(o.ripSwap(la, o.pickPartner(rng, la)), rejects)
	}
	var la layout.Loc
	for {
		la = layout.Loc{Row: rng.Intn(o.A.Rows), Col: rng.Intn(o.A.Cols)}
		if o.P.CellAt(la.Row, la.Col) >= 0 {
			break
		}
	}
	return o.settle(o.ripSwap(la, o.pickPartner(rng, la)), rejects)
}

// pickPartner chooses the destination slot for a swap, uniformly over the
// array's other slots.
func (o *Optimizer) pickPartner(rng *rand.Rand, la layout.Loc) layout.Loc {
	for {
		lb := layout.Loc{Row: rng.Intn(o.A.Rows), Col: rng.Intn(o.A.Cols)}
		if lb != la {
			return lb
		}
	}
}

func (o *Optimizer) begin(kind moveKind) float64 {
	if o.moveKind != moveNone {
		panic("core: Propose while a move is open")
	}
	o.moveKind = kind
	o.epoch++
	o.journal = o.journal[:0]
	o.jOldG, o.jOldD, o.jOldDC = o.g, o.d, o.dc
	o.jCritSum = o.critSum
	if o.timingOn() {
		o.An.Begin()
	}
	return o.Cost()
}

// ripSwap opens a swap move up to its rip-up: it rips the nets of the cells
// at la and lb and exchanges the two slots. It returns the cost before the
// move.
func (o *Optimizer) ripSwap(la, lb layout.Loc) float64 {
	before := o.begin(moveSwap)
	o.swapA, o.swapB = la, lb
	o.ripCell(o.P.CellAt(la.Row, la.Col))
	o.ripCell(o.P.CellAt(lb.Row, lb.Col))
	o.P.Swap(la, lb)
	return before
}

// ripPinmap opens a pinmap move up to its rip-up: it rips the cell's nets and
// gives it pinmap variant nv. It returns the cost before the move.
func (o *Optimizer) ripPinmap(cell int32, nv uint8) float64 {
	before := o.begin(movePinmap)
	o.pmCell, o.pmOld = cell, o.P.Pm[cell]
	o.ripCell(cell)
	o.P.SetPinmap(cell, nv)
	return before
}

// journalNet records a net's current route once per move: a net already
// stamped this move keeps its first entry. A ripped net (ripped true) must
// not be stamped yet; ripNet returns before calling it for one that is, and
// every rip-up of a move precedes its reroutes.
func (o *Optimizer) journalNet(id int32, ripped bool) {
	if o.netStamp[id] == o.epoch {
		return
	}
	o.netStamp[id] = o.epoch
	if len(o.journal) < cap(o.journal) {
		o.journal = o.journal[:len(o.journal)+1]
	} else {
		o.journal = append(o.journal, jEntry{})
	}
	e := &o.journal[len(o.journal)-1]
	e.id = id
	e.ripped = ripped
	e.timed = false
	e.old.CopyFrom(&o.Rts[id])
	e.oldEst = o.estLen[id]
	if o.netMaxD != nil {
		e.oldMaxD = o.netMaxD[id]
	}
}

// ripCell rips up every net attached to the cell: resources are freed, the
// route descriptors reset, and G/D updated. The nets join the unrouted pool
// that rerouteAndTime drains.
func (o *Optimizer) ripCell(cell int32) {
	if cell < 0 {
		return
	}
	c := &o.NL.Cells[cell]
	if c.Out >= 0 {
		o.ripNet(c.Out)
	}
	for _, in := range c.In {
		if in >= 0 {
			o.ripNet(in)
		}
	}
}

func (o *Optimizer) ripNet(id int32) {
	if o.netStamp[id] == o.epoch {
		// Already ripped via another pin of the moved cell(s).
		return
	}
	o.journalNet(id, true)
	o.F.Stats.RipUps++
	r := &o.Rts[id]
	if r.Global {
		o.g++
		o.dc -= r.UnroutedChans()
	}
	if r.DetailDone() {
		o.d++
	}
	o.F.RemoveRoute(id, r)
	r.Reset()
}

// settle finishes a move opened at cost before with the paper's
// incremental routing cascade (§3.3–§3.4): every currently-unroutable net
// (the ripped ones plus any that were stuck before this move) is attempted
// again, longest first — global routing, then the missing channels of the
// detailed routing. Then the timing view is refreshed for every net whose
// embedding or pins changed, and settle returns the cost delta. With rejects
// set and timing on, boundRejects first asks whether the move is rejected
// at a bound on its cost; if so, settle returns +Inf without the rest of the
// timing update, and the caller's Reject undoes what was done.
func (o *Optimizer) settle(before float64, rejects func(lb float64) bool) float64 {
	o.wake()
	o.cascade()
	if rejects != nil && !o.fullEval && o.timingOn() && o.boundRejects(before, rejects) {
		return math.Inf(1)
	}
	o.retime()
	return o.Cost() - before
}

// cascade reroutes the unroutable nets. They are the persistent unrouted
// list, so the cascade is one merge: the ripped nets, re-keyed by their new
// estimated lengths, go into the old list in order, and the walk builds the
// next list from the nets that stay unrouted. A net whose attempt its fit
// test rules out is passed over: the attempt would fail and change nothing,
// so the layout is the one retrying it would give. It is tested at its turn,
// since an earlier net may have taken what it needs: a ripped net by
// mayRoute, a listed net that wake woke by stretchFit. A listed net that wake
// did not mark could not route after rip-up and cannot later, so it is
// passed over untested. The old list stays in spare for Reject.
func (o *Optimizer) cascade() {
	// So far the journal holds exactly the ripped nets.
	o.ripped = o.ripped[:0]
	for i := range o.journal {
		id := o.journal[i].id
		o.estLen[id] = o.P.EstLength(id)
		k := len(o.ripped)
		o.ripped = append(o.ripped, id)
		for ; k > 0 && o.before(id, o.ripped[k-1]); k-- {
			o.ripped[k] = o.ripped[k-1]
		}
		o.ripped[k] = id
	}

	old, next := o.unrouted, o.spare[:0]
	i, j := 0, 0
	for {
		// A ripped net still sits in old under its stale key; its netStamp is
		// this epoch, which no other net in old has before its turn.
		for i < len(old) && o.netStamp[old[i]] == o.epoch {
			i++
		}
		var id int32
		if i < len(old) && (j == len(o.ripped) || o.before(old[i], o.ripped[j])) {
			id = old[i]
			i++
			if o.woke[id] != o.epoch {
				next = append(next, id)
				continue
			}
			o.step(id, true)
			if !o.stretchFit(id) {
				next = append(next, id)
				continue
			}
		} else if j < len(o.ripped) {
			id = o.ripped[j]
			j++
			if !o.mayRoute(id) {
				next = append(next, id)
				continue
			}
		} else {
			break
		}
		if !o.routeNet(id) {
			next = append(next, id)
		}
	}
	o.unrouted, o.spare = next, old
}

// boundRejects reports whether rejects rejects the open move at a lower
// bound on its cost delta. It first asks with no bound (-Inf), which a rule
// that rejects whatever the cost answers at once. Otherwise it times the
// changed journaled nets that the committed critical path crosses (every
// changed net when the criticality term is on, since critSum sums them all)
// and asks with the cost at the path's length under the new delays. That
// length is at most the new WCD (timing.PathBound), and costAt is monotone in
// the WCD, so the bound is at most the delta the full update would return.
func (o *Optimizer) boundRejects(before float64, rejects func(lb float64) bool) bool {
	if rejects(math.Inf(-1)) {
		return true
	}
	if !o.pathOK {
		o.tracePath()
	}
	critOn := o.critOn()
	for i := range o.journal {
		e := &o.journal[i]
		if (critOn || o.onPath[e.id] == o.pathGen) && o.stale(e) {
			o.timeNet(e)
		}
	}
	return rejects(o.costAt(o.An.PathBound(&o.path)) - before)
}

// tracePath sets the path the move bound follows to the committed critical
// path and marks the nets it crosses. It runs before any delay of the move
// is set, so the analyzer still holds the committed state.
func (o *Optimizer) tracePath() {
	o.An.TraceCritical(&o.path)
	o.pathGen++
	for i := range o.path.Slots {
		// Slots[i] is a sink slot of Cells[i]'s output net.
		o.onPath[o.NL.Cells[o.path.Cells[i]].Out] = o.pathGen
	}
	o.pathOK = true
}

// stale reports whether journaled net e needs new delays: it has sinks, and
// its pins moved or its route changed.
func (o *Optimizer) stale(e *jEntry) bool {
	return len(o.NL.Nets[e.id].Sinks) > 0 && (e.ripped || !o.Rts[e.id].Equal(&e.old))
}

// timeNet sets journaled net e's delays from its current route and, with the
// criticality term on, updates critSum by the change of its worst sink delay.
func (o *Optimizer) timeNet(e *jEntry) {
	e.timed = true
	d, err := o.netDelays(e.id)
	if err != nil {
		panic("core: " + err.Error())
	}
	o.An.SetNetDelays(e.id, d)
	if o.critOn() {
		m := 0.0
		for _, v := range d {
			if v > m {
				m = v
			}
		}
		o.critSum += o.crit.Values()[e.id] * (m - o.netMaxD[e.id])
		o.netMaxD[e.id] = m
	}
}

// retime sets the delays of every stale journaled net not yet timed, in
// journal order, and propagates them.
func (o *Optimizer) retime() {
	if !o.timingOn() {
		return
	}
	for i := range o.journal {
		if e := &o.journal[i]; !e.timed && o.stale(e) {
			o.timeNet(e)
		}
	}
	o.An.Propagate()
}

// routeNet attempts to complete the unrouted net id's route, global route
// first and then each missing channel in order, and reports whether it is
// now fully detail-routed. Each allocation splits the stretch it hits.
func (o *Optimizer) routeNet(id int32) bool {
	o.journalNet(id, false)
	r := &o.Rts[id]
	if !r.Global {
		if !groute.Route(o.F, o.P, id, r) {
			return false
		}
		if r.HasTrunk {
			if len(o.vstr) > 0 {
				o.vstr = split(o.vstr, int32(r.TrunkCol*o.A.VTracks+r.TrunkTrack), int32(r.VLo), int32(r.VHi))
			}
			o.step(id, false)
		}
		o.g--
		o.dc += r.UnroutedChans()
	}
	missing := 0
	for ci := range r.Chans {
		ca := &r.Chans[ci]
		if ca.Routed() {
			continue
		}
		if !droute.RouteChan(o.F, id, r, ci) {
			missing++
			continue
		}
		o.dc--
		if ss := o.hstr[ca.Ch]; len(ss) > 0 {
			segs := o.A.Seg[ca.Track]
			o.hstr[ca.Ch] = split(ss, int32(ca.Track), int32(segs[ca.SegLo].Start), int32(segs[ca.SegHi].End-1))
		}
		o.step(id, false)
	}
	if missing > 0 {
		return false
	}
	// Detail-routed now (a global route with no channel needs, such as a
	// sink-less net's, is complete at once).
	o.d--
	return true
}

// step calls stepHook, if set.
func (o *Optimizer) step(id int32, turn bool) {
	if o.stepHook != nil {
		o.stepHook(id, turn)
	}
}

// Accept implements anneal.Problem.
func (o *Optimizer) Accept() {
	if o.moveKind == moveNone {
		panic("core: Accept without an open move")
	}
	if o.timingOn() {
		o.An.Commit()
		// The path still bounds the next move while it is critical.
		if o.pathOK && o.An.PathBound(&o.path) != o.An.WCD() {
			o.pathOK = false
		}
	}
	switch o.moveKind {
	case moveSwap:
		o.countPerturbed(o.P.CellAt(o.swapA.Row, o.swapA.Col))
		o.countPerturbed(o.P.CellAt(o.swapB.Row, o.swapB.Col))
	case movePinmap:
		if o.P.Pm[o.pmCell] != o.pmOld {
			o.countPerturbed(o.pmCell)
		}
	}
	for i := range o.journal {
		o.rewatch(o.journal[i].id)
	}
	o.moveKind = moveNone
}

func (o *Optimizer) countPerturbed(cell int32) {
	if cell < 0 {
		return
	}
	if o.cellStamp[cell] <= o.cellEpochBase {
		o.cellStamp[cell] = o.epoch
		o.perturbed++
	}
}

// Reject implements anneal.Problem: every route, placement, counter and
// timing change of the tentative move is rolled back exactly.
func (o *Optimizer) Reject() {
	if o.moveKind == moveNone {
		panic("core: Reject without an open move")
	}
	if o.timingOn() {
		o.An.Revert()
	}
	// Free whatever the touched nets now hold, then reinstate the journaled
	// routes (the old set is mutually consistent, so two phases cannot
	// collide).
	for i := range o.journal {
		e := &o.journal[i]
		o.F.RemoveRoute(e.id, &o.Rts[e.id])
	}
	for i := range o.journal {
		e := &o.journal[i]
		o.Rts[e.id].CopyFrom(&e.old)
		o.F.InstallRoute(e.id, &o.Rts[e.id])
	}
	switch o.moveKind {
	case moveSwap:
		o.P.Swap(o.swapA, o.swapB)
	case movePinmap:
		o.P.SetPinmap(o.pmCell, o.pmOld)
	}
	o.g, o.d, o.dc = o.jOldG, o.jOldD, o.jOldDC
	o.unrouted, o.spare = o.spare, o.unrouted
	for i := range o.journal {
		o.estLen[o.journal[i].id] = o.journal[i].oldEst
	}
	if o.netMaxD != nil {
		for i := range o.journal {
			o.netMaxD[o.journal[i].id] = o.journal[i].oldMaxD
		}
		o.critSum = o.jCritSum
	}
	o.moveKind = moveNone
}

// mayRoute reports whether an attempt to route the unrouted net id would
// change anything. A net without a global route needs a free vertical run
// over its channel span (unless it has no sinks or stays in one channel); a
// globally routed net needs a free track in at least one missing channel,
// since channels share no resources. The test is exact: a false answer means
// the attempt would fail and leave the fabric and the route as they are.
func (o *Optimizer) mayRoute(id int32) bool {
	r := &o.Rts[id]
	if !r.Global {
		if len(o.NL.Nets[id].Sinks) == 0 {
			return true
		}
		box := o.P.NetBox(id)
		if box.ChLo == box.ChHi {
			return true
		}
		vLo, vHi := o.A.VSegRange(box.ChLo, box.ChHi)
		o.fitTests++
		return !o.F.VFit(vLo, vHi).Empty()
	}
	for i := range r.Chans {
		if ca := &r.Chans[i]; !ca.Routed() {
			o.fitTests++
			if !o.F.HFit(ca.Ch, ca.Lo, ca.Hi).Empty() {
				return true
			}
		}
	}
	return false
}
