package core

import (
	"fmt"

	"repro/internal/fabric"
)

// The wake index records what every listed net is waiting for, so that a
// move tests only the nets its rip-up could have unblocked, and only against
// the resources the rip-up freed.
//
// At a move boundary no listed net can route (checkUnrouted asserts it), and
// rip-up only frees. So after rip-up a listed net can fit only where a
// ripped net was: a track in one of its missing channels whose segments over
// its span are all free and include a freed run, or, without a global route,
// a (column, vtrack) whose vertical segments over its span are all free and
// include a freed trunk. Such a need lies inside the stretch around that run
// or trunk: the maximal free run of segments containing it. wake computes
// these stretches once, marks exactly the listed nets with a need inside one
// and records every such need. The cascade passes over every other listed net
// untested, which changes nothing, since routing only allocates and such a
// net stays unable to route.
//
// The cascade keeps the stretches exact: routing only allocates, and each
// allocation that hits a stretch splits it into its free parts left and
// right of what was taken. So at a woken net's turn it can route iff one of
// its recorded needs lies inside a current stretch, which is mayRoute's
// answer without a fabric-wide fit test; a need wake did not record cannot
// fit later in the move. The rule holds only inside the cascade: Check, which
// runs between moves, keeps mayRoute.
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

// stretch is a maximal free run of one resource's segments, in the units of
// the watch list it serves: in a channel's list, the columns [lo, hi] that
// free segments of track at cover; in the vertical list, free vertical
// segments [lo, hi] of (column, vtrack) at, packed as col*VTracks+vtrack.
type stretch struct {
	at, lo, hi int32
}

// wokeNeed is a need wake recorded for a woken net: the span [lo, hi] of its
// entry in channel ch's list, or in the vertical list if ch < 0. next is the
// net's next recorded need, -1 after its last.
type wokeNeed struct {
	ch, lo, hi, next int32
}

// watchAll builds the index from the unrouted list, with the wake scratch.
func (o *Optimizer) watchAll() {
	o.hwatch = make([][]watch, o.A.Channels())
	o.netGen = make([]uint64, len(o.Rts))
	o.woke = make([]uint32, len(o.Rts))
	o.needHead = make([]int32, len(o.Rts))
	o.needs = make([]wokeNeed, 0, len(o.Rts))
	// A move rips the nets of at most two cells, and a net holds at most one
	// run per channel and one trunk; the cascade's splits grow the lists
	// amortized beyond that.
	pins := 0
	for i := range o.NL.Cells {
		pins = max(pins, 1+len(o.NL.Cells[i].In))
	}
	o.hstr = make([][]stretch, o.A.Channels())
	for ch := range o.hstr {
		o.hstr[ch] = make([]stretch, 0, 2*pins)
	}
	o.vstr = make([]stretch, 0, 2*pins)
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

// wake computes the move's stretches, for the lists that have entries, and
// marks with the current epoch every listed net that the move's rip-up made
// routable. It runs after rip-up, when the journal holds exactly the ripped
// nets and the routes they held.
func (o *Optimizer) wake() {
	for ch := range o.hstr {
		o.hstr[ch] = o.hstr[ch][:0]
	}
	o.vstr, o.needs = o.vstr[:0], o.needs[:0]
	for i := range o.journal {
		r := &o.journal[i].old
		if r.HasTrunk && len(o.vwatch) > 0 {
			o.vstr = o.vstretch(o.vstr, r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi)
		}
		for c := range r.Chans {
			if ca := &r.Chans[c]; ca.Routed() && len(o.hwatch[ca.Ch]) > 0 {
				o.hstr[ca.Ch] = o.hstretch(o.hstr[ca.Ch], ca.Ch, ca.Track, ca.SegLo, ca.SegHi)
			}
		}
	}
	for ch, ss := range o.hstr {
		if len(ss) > 0 {
			o.hwatch[ch] = o.wakeList(int32(ch), o.hwatch[ch], ss)
		}
	}
	if len(o.vstr) > 0 {
		o.vwatch = o.wakeList(-1, o.vwatch, o.vstr)
	}
}

// hstretch appends to ss, channel ch's stretches, the stretch around freed
// segments [lo, hi] of track t, unless one already holds them.
func (o *Optimizer) hstretch(ss []stretch, ch, t, lo, hi int) []stretch {
	segs := o.A.Seg[t]
	colLo, colHi := int32(segs[lo].Start), int32(segs[hi].End-1)
	for _, s := range ss {
		if s.at == int32(t) && s.lo <= colLo && colHi <= s.hi {
			return ss
		}
	}
	for lo > 0 && o.F.HOwner(ch, t, lo-1) == fabric.Free {
		lo--
	}
	for hi < len(segs)-1 && o.F.HOwner(ch, t, hi+1) == fabric.Free {
		hi++
	}
	return append(ss, stretch{int32(t), int32(segs[lo].Start), int32(segs[hi].End - 1)})
}

// vstretch appends to ss the stretch around freed vertical segments
// [lo, hi] of (col, vt), unless one already holds them.
func (o *Optimizer) vstretch(ss []stretch, col, vt, lo, hi int) []stretch {
	at := int32(col*o.A.VTracks + vt)
	for _, s := range ss {
		if s.at == at && s.lo <= int32(lo) && int32(hi) <= s.hi {
			return ss
		}
	}
	for lo > 0 && o.F.VOwner(col, vt, lo-1) == fabric.Free {
		lo--
	}
	for hi < o.A.NVSegs-1 && o.F.VOwner(col, vt, hi+1) == fabric.Free {
		hi++
	}
	return append(ss, stretch{at, int32(lo), int32(hi)})
}

// wakeList scans watch list ch (-1: the vertical list) against its
// stretches ss, drops the retired entries and returns what remains. A live
// entry whose span lies inside a stretch wakes its net and is recorded as one
// of its needs, unless the move ripped the net: the cascade tests a ripped
// net against the whole fabric.
func (o *Optimizer) wakeList(ch int32, ws []watch, ss []stretch) []watch {
	k := 0
	for i := range ws {
		w := ws[i]
		if w.gen != o.netGen[w.net] {
			continue
		}
		ws[k] = w
		k++
		for _, s := range ss {
			if s.lo <= w.lo && w.hi <= s.hi {
				o.record(w.net, ch, w.lo, w.hi)
				break
			}
		}
	}
	return ws[:k]
}

// record wakes net and adds the need [lo, hi] of list ch to its recorded
// needs, unless the move ripped it.
func (o *Optimizer) record(net, ch, lo, hi int32) {
	if o.netStamp[net] == o.epoch {
		return
	}
	next := int32(-1)
	if o.woke[net] == o.epoch {
		next = o.needHead[net]
	}
	o.woke[net] = o.epoch
	o.needHead[net] = int32(len(o.needs))
	o.needs = append(o.needs, wokeNeed{ch, lo, hi, next})
}

// stretchFit is mayRoute for a woken net at its turn in the cascade: whether
// one of its recorded needs lies inside a current stretch.
func (o *Optimizer) stretchFit(id int32) bool {
	for k := o.needHead[id]; k >= 0; k = o.needs[k].next {
		n := &o.needs[k]
		ss := o.vstr
		if n.ch >= 0 {
			ss = o.hstr[n.ch]
		}
		for _, s := range ss {
			if s.lo <= n.lo && n.hi <= s.hi {
				return true
			}
		}
	}
	return false
}

// split keeps the stretches ss exact after segments [lo, hi] of resource at,
// in ss's units, were allocated: the stretch holding them, if any, becomes
// its free parts left and right of them. Stretches of one resource are
// disjoint, and an allocation takes only free segments, so at most one
// stretch overlaps [lo, hi], and it holds the whole range.
func split(ss []stretch, at, lo, hi int32) []stretch {
	for i, s := range ss {
		if s.at != at || s.hi < lo || hi < s.lo {
			continue
		}
		switch {
		case s.lo < lo && hi < s.hi:
			ss[i].hi = lo - 1
			return append(ss, stretch{at, hi + 1, s.hi})
		case s.lo < lo:
			ss[i].hi = lo - 1
		case hi < s.hi:
			ss[i].lo = hi + 1
		default:
			ss[i] = ss[len(ss)-1]
			return ss[:len(ss)-1]
		}
		return ss
	}
	return ss
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
