package fabric

// freeLogLen is the number of frees each log remembers. A reader whose stamp
// predates the oldest remembered free must assume anything may have changed,
// so the length trades memory against false "may fit" answers; in the
// annealer's move loop stamps are refreshed every move, and one move frees far
// fewer runs per channel than this.
const freeLogLen = 32

// freeLog is a fixed ring of the most recent frees on one resource class:
// what[i] names the freed run (a track, or a packed column/vtrack) and clk[i]
// the free clock at which it was released. Clocks strictly increase from the
// oldest slot to the newest; a slot that was never written has clock 0.
type freeLog struct {
	clk  [freeLogLen]uint64
	what [freeLogLen]int32
	next int    // slot the next record overwrites (the oldest record)
	lost uint64 // clock of the newest record overwritten or invalidated
}

// add records that run w was freed at clock clk.
func (l *freeLog) add(clk uint64, w int32) {
	l.lost = max(l.lost, l.clk[l.next])
	l.clk[l.next], l.what[l.next] = clk, w
	l.next = (l.next + 1) % freeLogLen
}

// since calls fit on every run freed after stamp, newest first, and reports
// true as soon as fit does. It also reports true when the ring no longer
// reaches back to stamp, since an overwritten free could be the one that
// matters.
func (l *freeLog) since(stamp uint64, fit func(w int32) bool) bool {
	if l.lost > stamp {
		return true
	}
	for k := 1; k <= freeLogLen; k++ {
		i := (l.next + freeLogLen - k) % freeLogLen
		if l.clk[i] <= stamp {
			return false
		}
		if fit(l.what[i]) {
			return true
		}
	}
	return false
}

// FreeClock returns the fabric's free clock: it starts at 1 and advances by
// one on every FreeH and FreeV and on Reset, and never otherwise, so 0 is free
// for callers to mean "no stamp". A caller that finds a route impossible at
// clock c needs to look again only at runs freed after c, which HMayFit and
// VMayFit answer.
func (f *Fabric) FreeClock() uint64 { return f.clock }

// HMayFit reports whether channel ch may now have a track whose segments
// covering columns [lo, hi] are all free, given that none had at clock stamp.
// It is true iff a track freed in ch after stamp has that run free now, or the
// channel's log no longer reaches back to stamp. A false answer is exact: no
// track can host the run.
func (f *Fabric) HMayFit(ch, lo, hi int, stamp uint64) bool {
	return f.hlog[ch].since(stamp, func(t int32) bool {
		sl, sh := f.A.SegRange(int(t), lo, hi)
		return f.HRangeFree(ch, int(t), sl, sh)
	})
}

// VMayFit is HMayFit for vertical runs: whether some (column, vtrack) may now
// have vertical segments [vLo, vHi] all free, given that none had at clock
// stamp.
func (f *Fabric) VMayFit(vLo, vHi int, stamp uint64) bool {
	vt := f.A.VTracks
	return f.vlog.since(stamp, func(w int32) bool {
		return f.VRangeFree(int(w)/vt, int(w)%vt, vLo, vHi)
	})
}
