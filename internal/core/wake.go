package core

import (
	"fmt"

	"repro/internal/fabric"
)

// The wake index records what every listed net is waiting for, so that a
// move tests only the nets its rip-up could have unblocked.
//
// At a move boundary no listed net can route (checkUnrouted asserts it), and
// rip-up only frees. So after rip-up a listed net can fit only where a
// ripped net was: a track in one of its missing channels whose segments over
// its span are all free and include a freed run, or, without a global route,
// a (column, vtrack) whose vertical segments over its span are all free and
// include a freed trunk. wake marks exactly those nets; the cascade passes
// over every other listed net untested, which changes nothing, since routing
// only allocates and such a net stays unable to route.
//
// The index is written only by New, Accept and Clone, so Reject needs no
// undo. Accept gives every journaled net a fresh generation, which retires
// its entries, and files new ones if it is still unrouted. Scans drop the
// retired entries they meet.

// watch is one entry of the wake index. In a channel's list, net is missing
// that channel and needs a track covering columns [lo, hi] there; in the
// vertical list, net has no global route and needs a (column, vtrack) free
// over vertical segments [lo, hi]. It is live iff gen is netGen[net].
type watch struct {
	lo, hi, net int32
	gen         uint64
}

// freedRun is a horizontal run the move's rip-up freed: segments [segLo,
// segHi] of track in channel ch, covering columns [colLo, colHi]. [extLo,
// extHi] are the columns of the maximal free stretch around it, computed
// when an entry first overlaps the run (extHi < 0 until then).
type freedRun struct {
	ch, track, segLo, segHi int32
	colLo, colHi            int32
	extLo, extHi            int32
}

// watchAll builds the index from the unrouted list, with the wake scratch.
func (o *Optimizer) watchAll() {
	o.hwatch = make([][]watch, o.A.Channels())
	o.netGen = make([]uint64, len(o.Rts))
	o.woke = make([]uint32, len(o.Rts))
	// A move rips the nets of at most two cells, and a net holds at most one
	// run per channel.
	pins := 0
	for i := range o.NL.Cells {
		pins = max(pins, 1+len(o.NL.Cells[i].In))
	}
	o.freedH = make([]freedRun, 0, 2*pins*o.A.Channels())
	for _, id := range o.unrouted {
		o.rewatch(id)
	}
}

// rewatch gives net id a fresh generation and, if it lacks a detailed
// route, one entry per need it is stuck on.
func (o *Optimizer) rewatch(id int32) {
	o.watchGen++
	o.netGen[id] = o.watchGen
	r := &o.Rts[id]
	if !r.Global {
		box := o.P.NetBox(id)
		vLo, vHi := o.A.VSegRange(box.ChLo, box.ChHi)
		o.vwatch = o.appendWatch(o.vwatch, watch{int32(vLo), int32(vHi), id, o.watchGen})
		return
	}
	for i := range r.Chans {
		if ca := &r.Chans[i]; !ca.Routed() {
			o.hwatch[ca.Ch] = o.appendWatch(o.hwatch[ca.Ch], watch{int32(ca.Lo), int32(ca.Hi), id, o.watchGen})
		}
	}
}

// appendWatch appends w to ws, dropping ws's retired entries first if ws is
// full, so a list grows only when its live entries fill it.
func (o *Optimizer) appendWatch(ws []watch, w watch) []watch {
	if len(ws) == cap(ws) {
		k := 0
		for _, x := range ws {
			if x.gen == o.netGen[x.net] {
				ws[k] = x
				k++
			}
		}
		ws = ws[:k]
	}
	return append(ws, w)
}

// wake marks with the current epoch every listed net that the move's rip-up
// made routable. It runs after rip-up, when the journal holds exactly the
// ripped nets and the routes they held.
func (o *Optimizer) wake() {
	o.freedH = o.freedH[:0]
	trunks := false
	for i := range o.journal {
		r := &o.journal[i].old
		trunks = trunks || r.HasTrunk
		for c := range r.Chans {
			ca := &r.Chans[c]
			if !ca.Routed() || len(o.hwatch[ca.Ch]) == 0 {
				continue
			}
			segs := o.A.Seg[ca.Track]
			run := freedRun{ch: int32(ca.Ch), track: int32(ca.Track), segLo: int32(ca.SegLo), segHi: int32(ca.SegHi),
				colLo: int32(segs[ca.SegLo].Start), colHi: int32(segs[ca.SegHi].End - 1), extHi: -1}
			k := len(o.freedH)
			o.freedH = append(o.freedH, run)
			for ; k > 0 && o.freedH[k-1].ch > run.ch; k-- {
				o.freedH[k] = o.freedH[k-1]
			}
			o.freedH[k] = run
		}
	}
	for i := 0; i < len(o.freedH); {
		j := i + 1
		for j < len(o.freedH) && o.freedH[j].ch == o.freedH[i].ch {
			j++
		}
		o.wakeChannel(o.freedH[i:j])
		i = j
	}
	if trunks && len(o.vwatch) > 0 {
		o.wakeVertical()
	}
}

// wakeChannel scans one channel's entries against the runs freed in it. An
// entry wakes iff its span lies inside a run's free extent on the run's
// track, that is iff that track can host it now.
func (o *Optimizer) wakeChannel(runs []freedRun) {
	ch := runs[0].ch
	ws, k := o.hwatch[ch], 0
	gen, woke, epoch := o.netGen, o.woke, o.epoch
	for i := range ws {
		w := &ws[i]
		if w.gen != gen[w.net] {
			continue
		}
		if k != i {
			ws[k] = *w
		}
		k++
		if woke[w.net] == epoch {
			continue
		}
		for r := range runs {
			run := &runs[r]
			if w.hi < run.colLo || w.lo > run.colHi {
				continue
			}
			if run.extHi < 0 {
				o.extent(run)
			}
			if run.extLo <= w.lo && w.hi <= run.extHi {
				woke[w.net] = epoch
				break
			}
		}
	}
	if k < len(ws) {
		o.hwatch[ch] = ws[:k]
	}
}

// extent fills run's free extent: the columns of the free segments of its
// track that join it on either side, and its own.
func (o *Optimizer) extent(run *freedRun) {
	ch, t := int(run.ch), int(run.track)
	segs := o.A.Seg[t]
	lo, hi := int(run.segLo), int(run.segHi)
	for lo > 0 && o.F.HOwner(ch, t, lo-1) == fabric.Free {
		lo--
	}
	for hi < len(segs)-1 && o.F.HOwner(ch, t, hi+1) == fabric.Free {
		hi++
	}
	run.extLo, run.extHi = int32(segs[lo].Start), int32(segs[hi].End-1)
}

// wakeVertical scans the vertical list against the freed trunks. An entry
// wakes iff a freed trunk's (column, vtrack) is free over its span.
func (o *Optimizer) wakeVertical() {
	ws, k := o.vwatch, 0
	for i := range ws {
		w := &ws[i]
		if w.gen != o.netGen[w.net] {
			continue
		}
		if k != i {
			ws[k] = *w
		}
		k++
		if o.woke[w.net] == o.epoch {
			continue
		}
		lo, hi := int(w.lo), int(w.hi)
		for j := range o.journal {
			r := &o.journal[j].old
			if r.HasTrunk && lo <= r.VHi && r.VLo <= hi && o.F.VRangeFree(r.TrunkCol, r.TrunkTrack, lo, hi) {
				o.woke[w.net] = o.epoch
				break
			}
		}
	}
	o.vwatch = ws[:k]
}

// checkWatches compares the wake index with one rebuilt from scratch: every
// listed net has exactly one live entry per need it is stuck on, no other
// entry is live, and no generation exceeds the counter.
func (o *Optimizer) checkWatches() error {
	type need struct {
		ch  int // -1: the vertical list
		net int32
	}
	want := make(map[need][2]int32)
	for _, id := range o.unrouted {
		r := &o.Rts[id]
		if !r.Global {
			box := o.P.NetBox(id)
			vLo, vHi := o.A.VSegRange(box.ChLo, box.ChHi)
			want[need{-1, id}] = [2]int32{int32(vLo), int32(vHi)}
			continue
		}
		for i := range r.Chans {
			if ca := &r.Chans[i]; !ca.Routed() {
				want[need{ca.Ch, id}] = [2]int32{int32(ca.Lo), int32(ca.Hi)}
			}
		}
	}
	for id, g := range o.netGen {
		if g > o.watchGen {
			return fmt.Errorf("core: net %d has watch generation %d, past the counter %d", id, g, o.watchGen)
		}
	}
	scan := func(ch int, ws []watch) error {
		for _, w := range ws {
			if w.net < 0 || int(w.net) >= len(o.Rts) || w.gen > o.watchGen {
				return fmt.Errorf("core: watch %+v in list %d names no net or a generation past the counter %d", w, ch, o.watchGen)
			}
			if w.gen != o.netGen[w.net] {
				continue
			}
			k := need{ch, w.net}
			span, ok := want[k]
			if !ok {
				return fmt.Errorf("core: live watch %+v in list %d matches no need net %d is stuck on", w, ch, w.net)
			}
			if span != [2]int32{w.lo, w.hi} {
				return fmt.Errorf("core: live watch %+v in list %d, net %d needs [%d, %d]", w, ch, w.net, span[0], span[1])
			}
			delete(want, k)
		}
		return nil
	}
	for ch, ws := range o.hwatch {
		if err := scan(ch, ws); err != nil {
			return err
		}
	}
	if err := scan(-1, o.vwatch); err != nil {
		return err
	}
	for k := range want {
		return fmt.Errorf("core: net %d is stuck in list %d but has no live watch there", k.net, k.ch)
	}
	return nil
}
