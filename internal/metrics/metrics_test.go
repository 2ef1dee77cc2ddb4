package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// handStepped is a hand-written two-temperature anneal (warmup step 0 plus
// temperatures 1 and 2) with every field chosen so aggregate arithmetic can be
// checked exactly.
func handStepped() []TempRecord {
	return []TempRecord{
		{Chain: 0, Step: 0, Temp: 10, Moves: 100, Accepted: 90, Cost: 50,
			Work: Work{RipUps: 40, GRouteAttempts: 45, GRouteFails: 5, DRouteAttempts: 80, DRouteFails: 8,
				STAUpdates: 30, STACellsRelaxed: 120}, Elapsed: 10 * time.Millisecond},
		{Chain: 0, Step: 1, Temp: 8, Moves: 200, Accepted: 100, Cost: 40,
			Work: Work{RipUps: 70, GRouteAttempts: 72, GRouteFails: 2, DRouteAttempts: 140, DRouteFails: 4,
				STAUpdates: 50, STACellsRelaxed: 200}, Elapsed: 20 * time.Millisecond},
		{Chain: 0, Step: 2, Temp: 6, Moves: 200, Accepted: 60, Cost: 35,
			Work: Work{RipUps: 55, GRouteAttempts: 55, GRouteFails: 0, DRouteAttempts: 110, DRouteFails: 1,
				STAUpdates: 45, STACellsRelaxed: 180}, Elapsed: 10 * time.Millisecond},
	}
}

func TestSummaryAggregatesHandSteppedAnneal(t *testing.T) {
	s := NewSummary()
	for _, r := range handStepped() {
		s.RecordTemp(r)
	}
	s.RecordPhase(PhaseRecord{Phase: PhaseAnneal, Elapsed: 40 * time.Millisecond})
	s.RecordPhase(PhaseRecord{Phase: PhaseAnneal, Elapsed: 10 * time.Millisecond})
	s.RecordPhase(PhaseRecord{Phase: PhaseRepair, Elapsed: 5 * time.Millisecond})
	s.RecordChain(ChainRecord{Chain: 1, Temps: 3, Moves: 500})
	s.RecordChain(ChainRecord{Chain: 0, Temps: 3, Moves: 500, Champion: true})

	tot := s.Totals()
	if tot.Temps != 3 {
		t.Errorf("Temps = %d, want 3", tot.Temps)
	}
	if tot.Moves != 500 || tot.Accepted != 250 {
		t.Errorf("Moves/Accepted = %d/%d, want 500/250", tot.Moves, tot.Accepted)
	}
	if tot.RipUps != 165 {
		t.Errorf("RipUps = %d, want 165", tot.RipUps)
	}
	if tot.GRouteAttempts != 172 || tot.GRouteFails != 7 {
		t.Errorf("GRoute = %d/%d, want 172/7", tot.GRouteAttempts, tot.GRouteFails)
	}
	if tot.DRouteAttempts != 330 || tot.DRouteFails != 13 {
		t.Errorf("DRoute = %d/%d, want 330/13", tot.DRouteAttempts, tot.DRouteFails)
	}
	if tot.STAUpdates != 125 || tot.STACellsRelaxed != 500 {
		t.Errorf("STA = %d/%d, want 125/500", tot.STAUpdates, tot.STACellsRelaxed)
	}
	// Peak throughput is step 2's: 200 moves / 10 ms = 20000 moves/s (step 1
	// runs at 10000, the warmup at 10000).
	if tot.PeakMovesPerSec != 20000 {
		t.Errorf("PeakMovesPerSec = %v, want 20000", tot.PeakMovesPerSec)
	}
	if tot.LastTemp.Step != 2 || tot.LastTemp.Cost != 35 {
		t.Errorf("LastTemp = step %d cost %v, want step 2 cost 35", tot.LastTemp.Step, tot.LastTemp.Cost)
	}
	if tot.PhaseDur[PhaseAnneal] != 50*time.Millisecond {
		t.Errorf("PhaseDur[anneal] = %v, want 50ms", tot.PhaseDur[PhaseAnneal])
	}
	if tot.PhaseDur[PhaseRepair] != 5*time.Millisecond {
		t.Errorf("PhaseDur[repair] = %v, want 5ms", tot.PhaseDur[PhaseRepair])
	}
	// Chains are reported sorted by index regardless of arrival order.
	if len(tot.Chains) != 2 || tot.Chains[0].Chain != 0 || !tot.Chains[0].Champion {
		t.Errorf("Chains = %+v, want chain 0 (champion) first", tot.Chains)
	}

	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"3 temps, 500 moves, 250 accepted (50.0%)",
		"165 rip-ups",
		"125 incremental net updates",
		"anneal", "repair", "chain *0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestTempRecordRatios(t *testing.T) {
	var zero TempRecord
	if zero.AcceptRatio() != 0 || zero.MovesPerSec() != 0 {
		t.Errorf("zero record: AcceptRatio=%v MovesPerSec=%v, want 0/0",
			zero.AcceptRatio(), zero.MovesPerSec())
	}
	r := TempRecord{Moves: 80, Accepted: 20, Elapsed: 2 * time.Second}
	if r.AcceptRatio() != 0.25 {
		t.Errorf("AcceptRatio = %v, want 0.25", r.AcceptRatio())
	}
	if r.MovesPerSec() != 40 {
		t.Errorf("MovesPerSec = %v, want 40", r.MovesPerSec())
	}
}

// TestTempRecordJSON pins the exact bytes of a temperature record, the shape
// the trace, fleet heartbeats and the job service's SSE events share: every
// field distinct, so a renamed, dropped or reordered key fails.
func TestTempRecordJSON(t *testing.T) {
	r := TempRecord{Chain: 1, Step: 2, Temp: 3.5, Moves: 4, Accepted: 5, Cost: 6.25, BestCost: 7.5,
		G: 8, D: 9, GCost: 10.5, DCost: 11.5, TCost: 12.5, CCost: 13.5, WCD: 14.5,
		Work: Work{RipUps: 15, GRouteAttempts: 16, GRouteFails: 17, DRouteAttempts: 18, DRouteFails: 19,
			STAUpdates: 20, STACellsRelaxed: 21},
		Elapsed: 22}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"chain":1,"step":2,"temp":3.5,"moves":4,"accepted":5,"cost":6.25,"best_cost":7.5,` +
		`"g":8,"d":9,"g_cost":10.5,"d_cost":11.5,"t_cost":12.5,"c_cost":13.5,"wcd_ps":14.5,` +
		`"rip_ups":15,"groute_attempts":16,"groute_fails":17,"droute_attempts":18,"droute_fails":19,` +
		`"sta_updates":20,"sta_cells_relaxed":21,"elapsed_ns":22}`
	if string(got) != want {
		t.Errorf("TempRecord JSON\n got %s\nwant %s", got, want)
	}
}

func TestPhaseString(t *testing.T) {
	cases := map[Phase]string{
		PhaseInit: "init", PhasePlace: "place", PhaseGlobalRoute: "global-route",
		PhaseDetailRoute: "detail-route", PhaseTiming: "timing",
		PhaseAnneal: "anneal", PhaseRepair: "repair", NumPhases: "unknown",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestTraceEmitsParseableJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	for _, r := range handStepped() {
		tr.RecordTemp(r)
	}
	tr.RecordPhase(PhaseRecord{Phase: PhaseAnneal, Elapsed: 40 * time.Millisecond})
	tr.RecordChain(ChainRecord{Chain: 0, Temps: 3, Champion: true})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	type phasePayload struct {
		Name      string `json:"name"`
		ElapsedNS int64  `json:"elapsed_ns"`
	}
	type event struct {
		Event  string        `json:"event"`
		Schema string        `json:"schema"`
		Temp   *TempRecord   `json:"temp"`
		Phase  *phasePayload `json:"phase"`
		Chain  *ChainRecord  `json:"chain"`
	}
	var events []event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", len(events)+1, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6 (header + 3 temps + phase + chain)", len(events))
	}
	if events[0].Event != "header" || events[0].Schema != TraceSchema {
		t.Errorf("header = %+v, want event=header schema=%s", events[0], TraceSchema)
	}
	if events[1].Temp == nil || events[1].Temp.Step != 0 || events[1].Temp.Moves != 100 {
		t.Errorf("first temp event = %+v, want step 0 moves 100", events[1].Temp)
	}
	if events[4].Phase == nil || events[4].Phase.Name != "anneal" || events[4].Phase.ElapsedNS != int64(40*time.Millisecond) {
		t.Errorf("phase event = %+v, want anneal/40ms", events[4].Phase)
	}
	if events[5].Chain == nil || !events[5].Chain.Champion {
		t.Errorf("chain event = %+v, want champion chain 0", events[5].Chain)
	}
}

func TestMultiFansOutAndFiltersNil(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi with no live collectors must return nil (disabled)")
	}
	a := NewSummary()
	if got := Multi(nil, a); got != Collector(a) {
		t.Error("Multi with one live collector must return it directly")
	}
	b := NewSummary()
	m := Multi(a, nil, b)
	m.RecordTemp(TempRecord{Moves: 10, Accepted: 5})
	m.RecordPhase(PhaseRecord{Phase: PhaseInit, Elapsed: time.Millisecond})
	m.RecordChain(ChainRecord{Chain: 0})
	for i, s := range []*Summary{a, b} {
		tot := s.Totals()
		if tot.Moves != 10 || tot.PhaseDur[PhaseInit] != time.Millisecond || len(tot.Chains) != 1 {
			t.Errorf("collector %d missed fan-out: %+v", i, tot)
		}
	}
}

func TestStartPhase(t *testing.T) {
	StartPhase(nil, PhaseAnneal)() // must be a safe no-op

	s := NewSummary()
	done := StartPhase(s, PhaseTiming)
	time.Sleep(time.Millisecond)
	done()
	tot := s.Totals()
	if tot.PhaseDur[PhaseTiming] <= 0 {
		t.Errorf("PhaseDur[timing] = %v, want > 0", tot.PhaseDur[PhaseTiming])
	}
}
