package droute

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/netgen"
)

// routeKey flattens a detailed-routing outcome for exact comparison.
func routeKey(routes []fabric.NetRoute) [][]fabric.ChanAssign {
	out := make([][]fabric.ChanAssign, len(routes))
	for i := range routes {
		out[i] = append([]fabric.ChanAssign(nil), routes[i].Chans...)
	}
	return out
}

func equalKeys(a, b [][]fabric.ChanAssign) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestNegotiatedParallelInvariance pins the determinism contract of the
// channel-parallel negotiated router: for a fixed input, every GOMAXPROCS
// (1, 2, 8 and the process default) must produce the identical layout —
// same failure count, same track/segment assignment for every channel need of
// every net. Running under -race (the CI race gate covers this package)
// additionally proves the channel pool shares no mutable state.
func TestNegotiatedParallelInvariance(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "pw", Inputs: 5, Outputs: 4, Seq: 2, Comb: 45, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	for _, tracks := range []int{10, 14} {
		for seed := int64(0); seed < 3; seed++ {
			a := arch.MustNew(arch.Default(6, 16, tracks))
			pl, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			route := func(procs int) (int, *fabric.Fabric, []fabric.NetRoute) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				f := fabric.New(a)
				routes := make([]fabric.NetRoute, nl.NumNets())
				if gf := groute.RouteAll(f, pl, routes); len(gf) > 0 {
					t.Skipf("global routing failed at %d tracks", tracks)
				}
				failed := RouteAllNegotiated(f, routes, DefaultCost(), NegotiateConfig{})
				return failed, f, routes
			}
			refFailed, refF, refRoutes := route(1)
			if err := refF.CheckConsistent(refRoutes); err != nil {
				t.Fatalf("tracks=%d seed=%d GOMAXPROCS=1: %v", tracks, seed, err)
			}
			refKey := routeKey(refRoutes)
			for _, procs := range []int{2, 8, 0} {
				failed, f, routes := route(procs)
				if failed != refFailed {
					t.Errorf("tracks=%d seed=%d GOMAXPROCS=%d: %d failed, want %d",
						tracks, seed, procs, failed, refFailed)
				}
				if !equalKeys(routeKey(routes), refKey) {
					t.Errorf("tracks=%d seed=%d GOMAXPROCS=%d: layout differs from GOMAXPROCS=1",
						tracks, seed, procs)
				}
				if err := f.CheckConsistent(routes); err != nil {
					t.Fatalf("tracks=%d seed=%d GOMAXPROCS=%d: %v", tracks, seed, procs, err)
				}
			}
		}
	}
}

// TestNegotiatedGOMAXPROCSInvariance re-runs the router under
// GOMAXPROCS=1 and checks the result matches a fully parallel run — the same
// scheduling-independence contract the parallel annealer pins.
func TestNegotiatedGOMAXPROCSInvariance(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "pg", Inputs: 4, Outputs: 3, Seq: 2, Comb: 36, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 14, 12))
	pl, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	route := func() (int, [][]fabric.ChanAssign) {
		f := fabric.New(a)
		routes := make([]fabric.NetRoute, nl.NumNets())
		if gf := groute.RouteAll(f, pl, routes); len(gf) > 0 {
			t.Skip("global routing failed")
		}
		failed := RouteAllNegotiated(f, routes, DefaultCost(), NegotiateConfig{})
		return failed, routeKey(routes)
	}
	wideFailed, wideKey := route()
	prev := runtime.GOMAXPROCS(1)
	oneFailed, oneKey := route()
	runtime.GOMAXPROCS(prev)
	if wideFailed != oneFailed || !equalKeys(wideKey, oneKey) {
		t.Errorf("GOMAXPROCS=1 result differs: %d failed vs %d", oneFailed, wideFailed)
	}
}
