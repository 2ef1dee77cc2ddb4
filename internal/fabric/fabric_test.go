package fabric

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func testArch() *arch.Arch {
	return arch.MustNew(arch.Default(4, 24, 6))
}

func TestAllocFreeH(t *testing.T) {
	f := New(testArch())
	if !f.HRangeFree(0, 0, 0, 2) {
		t.Fatal("fresh fabric not free")
	}
	f.AllocH(0, 0, 0, 2, 7)
	if f.HOwner(0, 0, 1) != 7 {
		t.Error("owner not recorded")
	}
	if f.HRangeFree(0, 0, 2, 3) {
		t.Error("range overlapping allocation reported free")
	}
	if f.UsedH() != 3 {
		t.Errorf("UsedH = %d, want 3", f.UsedH())
	}
	f.FreeH(0, 0, 0, 2, 7)
	if f.UsedH() != 0 || !f.HRangeFree(0, 0, 0, 2) {
		t.Error("free did not restore")
	}
}

func TestAllocFreeV(t *testing.T) {
	f := New(testArch())
	f.AllocV(3, 1, 0, 1, 9)
	if f.VOwner(3, 1, 0) != 9 || f.VOwner(3, 1, 1) != 9 {
		t.Error("vertical ownership not recorded")
	}
	if f.VRangeFree(3, 1, 1, 1) {
		t.Error("allocated vseg reported free")
	}
	if f.UsedV() != 2 {
		t.Errorf("UsedV = %d, want 2", f.UsedV())
	}
	f.FreeV(3, 1, 0, 1, 9)
	if f.UsedV() != 0 {
		t.Error("UsedV not restored")
	}
}

func TestDoubleAllocPanics(t *testing.T) {
	f := New(testArch())
	f.AllocH(1, 2, 1, 1, 3)
	defer func() {
		if recover() == nil {
			t.Error("double alloc did not panic")
		}
	}()
	f.AllocH(1, 2, 1, 1, 4)
}

func TestWrongOwnerFreePanics(t *testing.T) {
	f := New(testArch())
	f.AllocH(1, 2, 1, 1, 3)
	defer func() {
		if recover() == nil {
			t.Error("wrong-owner free did not panic")
		}
	}()
	f.FreeH(1, 2, 1, 1, 5)
}

func TestReset(t *testing.T) {
	f := New(testArch())
	f.AllocH(0, 0, 0, 1, 1)
	f.AllocV(0, 0, 0, 0, 1)
	f.Reset()
	if f.UsedH() != 0 || f.UsedV() != 0 {
		t.Error("Reset did not clear usage")
	}
	if f.HOwner(0, 0, 0) != Free || f.VOwner(0, 0, 0) != Free {
		t.Error("Reset did not clear owners")
	}
}

// Property: any sequence of install/remove of random well-formed routes keeps
// the ownership tables exactly consistent with the route set, and removing
// everything restores an all-free fabric.
func TestInstallRemoveRouteProperty(t *testing.T) {
	a := testArch()
	f := func(seed int64) bool {
		fab := New(a)
		r := rand.New(rand.NewSource(seed))
		routes := make([]NetRoute, 12)
		live := map[int]bool{}
		for step := 0; step < 60; step++ {
			id := r.Intn(len(routes))
			if live[id] {
				fab.RemoveRoute(int32(id), &routes[id])
				routes[id].Reset()
				delete(live, id)
				continue
			}
			// Build a random route that only claims free resources.
			nr := NetRoute{Global: true}
			if r.Intn(2) == 0 {
				col := r.Intn(a.Cols)
				vt := r.Intn(a.VTracks)
				lo := r.Intn(a.NVSegs)
				hi := lo + r.Intn(a.NVSegs-lo)
				if fab.VRangeFree(col, vt, lo, hi) {
					nr.HasTrunk = true
					nr.TrunkCol, nr.TrunkTrack, nr.VLo, nr.VHi = col, vt, lo, hi
				}
			}
			nch := 1 + r.Intn(2)
			used := map[int]bool{}
			for c := 0; c < nch; c++ {
				ch := r.Intn(a.Channels())
				if used[ch] {
					continue
				}
				used[ch] = true
				tr := r.Intn(a.Tracks)
				lo := r.Intn(a.Cols)
				hi := lo + r.Intn(a.Cols-lo)
				sl, sh := a.SegRange(tr, lo, hi)
				if fab.HRangeFree(ch, tr, sl, sh) {
					nr.Chans = append(nr.Chans, ChanAssign{Ch: ch, Lo: lo, Hi: hi, Track: tr, SegLo: sl, SegHi: sh})
				}
			}
			routes[id] = nr
			fab.InstallRoute(int32(id), &routes[id])
			live[id] = true

			if err := fab.CheckConsistent(routes); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		for id := range live {
			fab.RemoveRoute(int32(id), &routes[id])
			routes[id].Reset()
		}
		return fab.UsedH() == 0 && fab.UsedV() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNetRouteHelpers(t *testing.T) {
	r := NetRoute{Global: true, HasTrunk: true, VLo: 1, VHi: 3}
	r.Chans = []ChanAssign{
		{Ch: 0, Lo: 2, Hi: 9, Track: 0, SegLo: 1, SegHi: 3},
		{Ch: 2, Lo: 4, Hi: 5, Track: -1},
	}
	if r.DetailDone() {
		t.Error("route with unrouted channel reported done")
	}
	if r.UnroutedChans() != 1 {
		t.Errorf("UnroutedChans = %d, want 1", r.UnroutedChans())
	}
	// 2 horizontal antifuses (segs 1-3) + 1 trunk tap + 2 vertical antifuses.
	if got := r.AntifuseCount(); got != 5 {
		t.Errorf("AntifuseCount = %d, want 5", got)
	}
	c := r.Clone()
	if !r.Equal(&c) {
		t.Error("clone not equal")
	}
	c.Chans[0].Track = 5
	if r.Chans[0].Track == 5 {
		t.Error("clone shares Chans storage")
	}
	if r.Equal(&c) {
		t.Error("Equal missed difference")
	}
	r.Reset()
	if r.Global || r.HasTrunk || len(r.Chans) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestCheckConsistentCatchesDrift(t *testing.T) {
	a := testArch()
	fab := New(a)
	routes := make([]NetRoute, 2)
	sl, sh := a.SegRange(0, 2, 7)
	routes[0] = NetRoute{Global: true, Chans: []ChanAssign{{Ch: 1, Lo: 2, Hi: 7, Track: 0, SegLo: sl, SegHi: sh}}}
	fab.InstallRoute(0, &routes[0])
	if err := fab.CheckConsistent(routes); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	// Drift: free a segment behind the route's back.
	fab.FreeH(1, 0, sl, sl, 0)
	if err := fab.CheckConsistent(routes); err == nil {
		t.Error("drift not detected")
	}
}

// TestCheckConsistentCatches builds one inconsistent state per fault
// CheckConsistent reports and requires the matching error.
func TestCheckConsistentCatches(t *testing.T) {
	a := testArch()
	sl, sh := a.SegRange(0, 2, 7)
	hrun := ChanAssign{Ch: 1, Lo: 2, Hi: 7, Track: 0, SegLo: sl, SegHi: sh}
	trunk := NetRoute{Global: true, HasTrunk: true, TrunkCol: 3, TrunkTrack: 1, VLo: 0, VHi: 1}
	for _, tc := range []struct {
		name string
		// build returns the routes; install, when set, fills the fabric
		// (by default every route is installed under its own id).
		build   func() []NetRoute
		install func(f *Fabric, routes []NetRoute)
		want    string
	}{
		{
			name:  "consistent",
			build: func() []NetRoute { return []NetRoute{{Global: true, Chans: []ChanAssign{hrun}}, trunk} },
		},
		{
			name: "two nets claim one hseg",
			build: func() []NetRoute {
				return []NetRoute{{Global: true, Chans: []ChanAssign{hrun}}, {Global: true, Chans: []ChanAssign{hrun}}}
			},
			install: func(f *Fabric, routes []NetRoute) { f.InstallRoute(0, &routes[0]) },
			want:    fmt.Sprintf("fabric: nets 0 and 1 both claim hseg [1 0 %d]", sl),
		},
		{
			name:    "two nets claim one vseg",
			build:   func() []NetRoute { return []NetRoute{trunk, trunk} },
			install: func(f *Fabric, routes []NetRoute) { f.InstallRoute(0, &routes[0]) },
			want:    "fabric: nets 0 and 1 both claim vseg [3 1 0]",
		},
		{
			name: "one net claims an hseg twice",
			build: func() []NetRoute {
				return []NetRoute{{Global: true, Chans: []ChanAssign{hrun, hrun}}}
			},
			install: func(*Fabric, []NetRoute) {},
			want:    fmt.Sprintf("fabric: nets 0 and 0 both claim hseg [1 0 %d]", sl),
		},
		{
			name:    "owned hseg no route claims",
			build:   func() []NetRoute { return make([]NetRoute, 6) },
			install: func(f *Fabric, _ []NetRoute) { f.AllocH(2, 1, 0, 0, 5) },
			want:    "fabric: hseg ch=2 t=1 s=0 owner=5 want=-1",
		},
		{
			name:    "owned vseg no route claims",
			build:   func() []NetRoute { return make([]NetRoute, 6) },
			install: func(f *Fabric, _ []NetRoute) { f.AllocV(4, 2, 1, 1, 5) },
			want:    "fabric: vseg col=4 t=2 s=1 owner=5 want=-1",
		},
		{
			name:    "claimed hseg left free",
			build:   func() []NetRoute { return []NetRoute{{Global: true, Chans: []ChanAssign{hrun}}} },
			install: func(*Fabric, []NetRoute) {},
			want:    fmt.Sprintf("fabric: hseg ch=1 t=0 s=%d owner=-1 want=0", sl),
		},
		{
			name:    "hseg owner differs from claimant",
			build:   func() []NetRoute { return []NetRoute{{Global: true, Chans: []ChanAssign{hrun}}, {}} },
			install: func(f *Fabric, routes []NetRoute) { f.InstallRoute(1, &routes[0]) },
			want:    fmt.Sprintf("fabric: hseg ch=1 t=0 s=%d owner=1 want=0", sl),
		},
		{
			name:    "vseg owner differs from claimant",
			build:   func() []NetRoute { return []NetRoute{trunk, {}} },
			install: func(f *Fabric, routes []NetRoute) { f.InstallRoute(1, &routes[0]) },
			want:    "fabric: vseg col=3 t=1 s=0 owner=1 want=0",
		},
		{
			name: "trunk on a non-global net",
			build: func() []NetRoute {
				r := trunk
				r.Global = false
				return []NetRoute{r}
			},
			install: func(*Fabric, []NetRoute) {},
			want:    "fabric: net 0 has trunk but not global",
		},
		{
			name: "run does not cover its interval",
			build: func() []NetRoute {
				r := hrun
				r.Hi = a.Cols - 1
				return []NetRoute{{Global: true, Chans: []ChanAssign{r}}}
			},
			install: func(*Fabric, []NetRoute) {},
			want:    fmt.Sprintf("fabric: net 0 channel 1 assignment does not cover [2,%d]", a.Cols-1),
		},
		{
			name: "run out of range",
			build: func() []NetRoute {
				r := hrun
				r.Track = a.Tracks
				return []NetRoute{{Global: true, Chans: []ChanAssign{r}}}
			},
			install: func(*Fabric, []NetRoute) {},
			want:    "out of range",
		},
		{
			name: "trunk out of range",
			build: func() []NetRoute {
				r := trunk
				r.TrunkCol = a.Cols
				return []NetRoute{r}
			},
			install: func(*Fabric, []NetRoute) {},
			want:    "out of range",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := New(a)
			routes := tc.build()
			if tc.install != nil {
				tc.install(f, routes)
			} else {
				for id := range routes {
					f.InstallRoute(int32(id), &routes[id])
				}
			}
			err := f.CheckConsistent(routes)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("consistent state rejected: %v", err)
			case tc.want == "":
			case err == nil:
				t.Fatalf("fault not reported, want %q", tc.want)
			case !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}
