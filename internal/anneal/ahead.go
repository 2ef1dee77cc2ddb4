package anneal

import "math/rand"

// aheadSize is the read-ahead's capacity in source values. A Float64 draw
// takes one value, plus one for each value that rounds to 1 (about one in
// 2^54); a peek that would need more than the ring holds gives up.
const aheadSize = 4

// readAhead is a rand.Source64 that can show the values it will return next.
// Values peeked wait in a fixed ring and are returned, in order, by the draws
// that follow, so a rand.Rand over it draws exactly what one over src would,
// wherever the peeks fall. src's Int63 must be its Uint64 with the top bit
// cleared, as rand.NewSource's is.
type readAhead struct {
	src  rand.Source64
	buf  [aheadSize]uint64
	head int // ring index of the next value
	n    int // values waiting
}

func newReadAhead(seed int64) *readAhead {
	return &readAhead{src: rand.NewSource(seed).(rand.Source64)}
}

func (r *readAhead) Uint64() uint64 {
	if r.n == 0 {
		return r.src.Uint64()
	}
	v := r.buf[r.head]
	r.head = (r.head + 1) % aheadSize
	r.n--
	return v
}

func (r *readAhead) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

func (r *readAhead) Seed(seed int64) {
	r.src.Seed(seed)
	r.n = 0
}

// peek returns the value the i'th draw from now will return (i < aheadSize).
func (r *readAhead) peek(i int) uint64 {
	for r.n <= i {
		r.buf[(r.head+r.n)%aheadSize] = r.src.Uint64()
		r.n++
	}
	return r.buf[(r.head+i)%aheadSize]
}

// peekFloat64 returns what the next Float64 of a rand.Rand over r will
// return, without drawing it: rand.Rand.Float64 divides an Int63 by 2^63 and
// draws again when the quotient rounds to 1. ok is false when those retries
// would run past the ring.
func (r *readAhead) peekFloat64() (f float64, ok bool) {
	for i := 0; i < aheadSize; i++ {
		if f = float64(int64(r.peek(i)&(1<<63-1))) / (1 << 63); f != 1 {
			return f, true
		}
	}
	return 0, false
}
