package transform

import (
	"testing"
	"time"

	"accrual/internal/core"
)

var start = time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

// scriptedLevels returns a LevelFunc replaying the given levels in order,
// then repeating the last one.
func scriptedLevels(levels ...core.Level) LevelFunc {
	i := 0
	return func(time.Time) core.Level {
		if i >= len(levels) {
			return levels[len(levels)-1]
		}
		l := levels[i]
		i++
		return l
	}
}

// driveA1 queries the transformation n times at 1-second steps and returns
// the sequence of statuses.
func driveA1(t *AccrualToBinary, n int) []core.Status {
	out := make([]core.Status, n)
	for i := 0; i < n; i++ {
		out[i] = t.Query(start.Add(time.Duration(i) * time.Second))
	}
	return out
}

func TestA1InitialQueryTrusts(t *testing.T) {
	a := NewAccrualToBinary(scriptedLevels(5))
	if got := a.Query(start); got != core.Trusted {
		t.Errorf("first query = %v, want trusted", got)
	}
	if a.Status() != core.Trusted {
		t.Error("Status should mirror the last query")
	}
}

func TestA1StatusBeforeFirstQuery(t *testing.T) {
	a := NewAccrualToBinary(scriptedLevels(0))
	if a.Status() != core.Trusted {
		t.Error("status before any query should be trusted")
	}
}

func TestA1SuspectsWhenLevelExceedsInitial(t *testing.T) {
	// Initial level 1 sets SL_susp=1; level 2 exceeds it -> suspect.
	a := NewAccrualToBinary(scriptedLevels(1, 2))
	got := driveA1(a, 2)
	if got[1] != core.Suspected {
		t.Errorf("statuses = %v, want suspect on second query", got)
	}
	slSusp, _ := a.Thresholds()
	if slSusp != 2 {
		t.Errorf("SL_susp after S-transition = %v, want 2", slSusp)
	}
}

func TestA1TrustOnDecrease(t *testing.T) {
	// Suspect at level 2, then the level drops: trust again and L_trust
	// grows.
	a := NewAccrualToBinary(scriptedLevels(1, 2, 1))
	got := driveA1(a, 3)
	if got[1] != core.Suspected || got[2] != core.Trusted {
		t.Errorf("statuses = %v", got)
	}
	_, lTrust := a.Thresholds()
	if lTrust != 2 {
		t.Errorf("L_trust = %d, want 2", lTrust)
	}
}

func TestA1TrustOnLongConstantRun(t *testing.T) {
	// Level jumps to 2 (suspect), then stays constant. With L_trust=1
	// the run length exceeds it quickly -> T-transition.
	a := NewAccrualToBinary(scriptedLevels(1, 2, 2, 2, 2))
	got := driveA1(a, 5)
	if got[1] != core.Suspected {
		t.Fatalf("statuses = %v", got)
	}
	trusted := false
	for _, s := range got[2:] {
		if s == core.Trusted {
			trusted = true
		}
	}
	if !trusted {
		t.Errorf("constant level never produced a T-transition: %v", got)
	}
}

func TestA1StrongCompletenessAgainstAccruingSource(t *testing.T) {
	// A faulty process: the level increases by 1 every 3rd query. The
	// transformation must eventually suspect forever (Lemma 7).
	level := core.Level(0)
	count := 0
	src := func(time.Time) core.Level {
		count++
		if count%3 == 0 {
			level++
		}
		return level
	}
	a := NewAccrualToBinary(src)
	var lastTransitionIdx int
	prev := core.Trusted
	const n = 10000
	var final core.Status
	for i := 0; i < n; i++ {
		s := a.Query(start.Add(time.Duration(i) * time.Second))
		if s != prev {
			lastTransitionIdx = i
			prev = s
		}
		final = s
	}
	if final != core.Suspected {
		t.Fatal("faulty process not suspected at the end")
	}
	if n-lastTransitionIdx < 100 {
		t.Errorf("last transition too close to the end (%d): not stabilised", lastTransitionIdx)
	}
}

func TestA1EventualStrongAccuracyAgainstBoundedSource(t *testing.T) {
	// A correct process: the level oscillates below a bound forever.
	// The transformation must eventually trust forever (Lemma 8).
	count := 0
	src := func(time.Time) core.Level {
		count++
		return core.Level([]float64{0, 3, 1, 4, 2, 5}[count%6])
	}
	a := NewAccrualToBinary(src)
	prev := core.Trusted
	lastTransitionIdx := 0
	const n = 10000
	var final core.Status
	for i := 0; i < n; i++ {
		s := a.Query(start.Add(time.Duration(i) * time.Second))
		if s != prev {
			lastTransitionIdx = i
			prev = s
		}
		final = s
	}
	if final != core.Trusted {
		t.Fatal("correct process not trusted at the end")
	}
	if n-lastTransitionIdx < 100 {
		t.Errorf("last transition at %d: not stabilised", lastTransitionIdx)
	}
}

func TestKnownBoundNeverWronglySuspects(t *testing.T) {
	// P_ac -> P: with SL_susp initialised to the known bound, a correct
	// process whose level stays at or below the bound is never suspected.
	count := 0
	src := func(time.Time) core.Level {
		count++
		return core.Level(count % 10) // bounded by 9
	}
	a := NewWithKnownBound(src, 9)
	for i := 0; i < 1000; i++ {
		if s := a.Query(start.Add(time.Duration(i) * time.Second)); s != core.Suspected {
			continue
		}
		t.Fatalf("wrong suspicion at query %d despite known bound", i)
	}
}

func TestKnownBoundStillDetectsCrash(t *testing.T) {
	level := core.Level(0)
	src := func(time.Time) core.Level { level += 1; return level }
	a := NewWithKnownBound(src, 9)
	var final core.Status
	for i := 0; i < 100; i++ {
		final = a.Query(start.Add(time.Duration(i) * time.Second))
	}
	if final != core.Suspected {
		t.Error("crash never detected with known bound")
	}
}

// scriptedBinary replays statuses then repeats the last.
type scriptedBinary struct {
	statuses []core.Status
	i        int
}

func (s *scriptedBinary) Query(time.Time) core.Status {
	if s.i >= len(s.statuses) {
		return s.statuses[len(s.statuses)-1]
	}
	st := s.statuses[s.i]
	s.i++
	return st
}

func TestA2AccruesWhileSuspected(t *testing.T) {
	bin := &scriptedBinary{statuses: []core.Status{
		core.Suspected, core.Suspected, core.Suspected,
	}}
	a := NewBinaryToAccrual(bin, 0.5)
	for i, want := range []core.Level{0.5, 1.0, 1.5} {
		if got := a.Suspicion(start.Add(time.Duration(i) * time.Second)); got != want {
			t.Errorf("query %d: level %v, want %v", i, got, want)
		}
	}
}

func TestA2ResetsOnTrust(t *testing.T) {
	bin := &scriptedBinary{statuses: []core.Status{
		core.Suspected, core.Suspected, core.Trusted, core.Suspected,
	}}
	a := NewBinaryToAccrual(bin, 1)
	want := []core.Level{1, 2, 0, 1}
	for i, w := range want {
		if got := a.Suspicion(start.Add(time.Duration(i) * time.Second)); got != w {
			t.Errorf("query %d: level %v, want %v", i, got, w)
		}
	}
}

func TestA2DefaultEpsilon(t *testing.T) {
	bin := &scriptedBinary{statuses: []core.Status{core.Suspected}}
	a := NewBinaryToAccrual(bin, 0)
	if got := a.Suspicion(start); got != 1 {
		t.Errorf("level = %v, want 1 (default eps)", got)
	}
}

func TestA2SatisfiesAccruementOverStabilisedBinary(t *testing.T) {
	// A ◇P history for a faulty process: mistakes early, then suspected
	// forever. The produced accrual history must satisfy Property 1.
	statuses := []core.Status{
		core.Suspected, core.Trusted, core.Suspected, core.Trusted,
		core.Suspected, // stabilises here
	}
	bin := &scriptedBinary{statuses: statuses}
	a := NewBinaryToAccrual(bin, 1)
	var history []core.QueryRecord
	for i := 0; i < 200; i++ {
		at := start.Add(time.Duration(i) * time.Second)
		history = append(history, core.QueryRecord{At: at, Level: a.Suspicion(at)})
	}
	rep := core.CheckAccruement(history, len(statuses), 1)
	if !rep.Holds {
		t.Fatalf("Accruement violated: %s", rep.Violation)
	}
}

func TestA2SatisfiesUpperBoundOverStabilisedBinary(t *testing.T) {
	// A ◇P history for a correct process: mistakes early, then trusted
	// forever. The level must be bounded by its pre-stabilisation peak.
	statuses := []core.Status{
		core.Suspected, core.Suspected, core.Suspected, core.Trusted,
	}
	bin := &scriptedBinary{statuses: statuses}
	a := NewBinaryToAccrual(bin, 1)
	var history []core.QueryRecord
	for i := 0; i < 200; i++ {
		at := start.Add(time.Duration(i) * time.Second)
		history = append(history, core.QueryRecord{At: at, Level: a.Suspicion(at)})
	}
	rep := core.CheckUpperBound(history, 3)
	if !rep.Holds {
		t.Fatalf("Upper Bound violated: %s", rep.Violation)
	}
}

func TestConstantThreshold(t *testing.T) {
	levels := map[time.Time]core.Level{}
	src := func(now time.Time) core.Level { return levels[now] }
	d := NewConstantThreshold(src, 2)
	at := start
	levels[at] = 2
	if d.Query(at) != core.Trusted {
		t.Error("level == threshold must trust (strict inequality)")
	}
	levels[at] = 2.1
	if d.Query(at) != core.Suspected {
		t.Error("level > threshold must suspect")
	}
}

func TestThresholdFunc(t *testing.T) {
	src := func(time.Time) core.Level { return 5 }
	d := NewThresholdFunc(src, func(now time.Time) core.Level {
		if now.Before(start.Add(time.Minute)) {
			return 10
		}
		return 1
	})
	if d.Query(start) != core.Trusted {
		t.Error("below early threshold")
	}
	if d.Query(start.Add(2*time.Minute)) != core.Suspected {
		t.Error("above late threshold")
	}
}

func TestHysteresisTransitions(t *testing.T) {
	levels := scriptedLevels(0, 3, 2, 1.5, 0.5, 3)
	d := NewHysteresis(levels, 2.5, 1)
	want := []core.Status{
		core.Trusted,   // 0
		core.Suspected, // 3 > 2.5
		core.Suspected, // 2 (between thresholds: hold)
		core.Suspected, // 1.5 (still above low)
		core.Trusted,   // 0.5 <= 1
		core.Suspected, // 3
	}
	for i, w := range want {
		if got := d.Query(start.Add(time.Duration(i) * time.Second)); got != w {
			t.Errorf("query %d: %v, want %v", i, got, w)
		}
	}
	if d.Status() != core.Suspected {
		t.Error("Status should reflect last query")
	}
}

func TestHysteresisLowEqualityTrusts(t *testing.T) {
	// Algorithm 3 line 7: trust if sl <= T0.
	d := NewHysteresis(scriptedLevels(3, 1), 2, 1)
	d.Query(start)
	if got := d.Query(start.Add(time.Second)); got != core.Trusted {
		t.Errorf("level == T0 should trust, got %v", got)
	}
}

// TestTheorem1 checks: with T1 <= T2 (and shared T0 for the hysteresis
// pair), D_T2 suspects only if D_T1 suspects, at every query.
func TestTheorem1(t *testing.T) {
	mk := func() LevelFunc {
		// A deterministic wandering level.
		vals := []core.Level{0, 1, 4, 2, 6, 3, 0.5, 7, 2, 9, 1, 0, 5, 5, 5, 0}
		i := 0
		return func(time.Time) core.Level {
			v := vals[i%len(vals)]
			i++
			return v
		}
	}
	t.Run("constant thresholds", func(t *testing.T) {
		src1, src2 := mk(), mk()
		d1 := NewConstantThreshold(src1, 2)
		d2 := NewConstantThreshold(src2, 5)
		for i := 0; i < 64; i++ {
			at := start.Add(time.Duration(i) * time.Second)
			s1, s2 := d1.Query(at), d2.Query(at)
			if s2 == core.Suspected && s1 != core.Suspected {
				t.Fatalf("query %d: D_T2 suspects but D_T1 does not", i)
			}
		}
	})
	t.Run("hysteresis with shared T0", func(t *testing.T) {
		src1, src2 := mk(), mk()
		d1 := NewHysteresis(src1, 2, 0.25)
		d2 := NewHysteresis(src2, 5, 0.25)
		for i := 0; i < 64; i++ {
			at := start.Add(time.Duration(i) * time.Second)
			s1, s2 := d1.Query(at), d2.Query(at)
			if s2 == core.Suspected && s1 != core.Suspected {
				t.Fatalf("query %d: D'_T2 suspects but D'_T1 does not", i)
			}
		}
	})
}

// TestTheorem4 checks: if D'_T2 has a T-transition at t, D'_T1 also has
// one at t (shared low threshold).
func TestTheorem4(t *testing.T) {
	vals := []core.Level{0, 6, 3, 0.1, 6, 4, 2, 0.1, 9, 0.1}
	mk := func() LevelFunc {
		i := 0
		return func(time.Time) core.Level {
			v := vals[i%len(vals)]
			i++
			return v
		}
	}
	d1 := NewHysteresis(mk(), 2, 0.25)
	d2 := NewHysteresis(mk(), 5, 0.25)
	prev1, prev2 := core.Trusted, core.Trusted
	for i := 0; i < len(vals)*3; i++ {
		at := start.Add(time.Duration(i) * time.Second)
		s1, s2 := d1.Query(at), d2.Query(at)
		tTrans2 := prev2 == core.Suspected && s2 == core.Trusted
		tTrans1 := prev1 == core.Suspected && s1 == core.Trusted
		if tTrans2 && !tTrans1 && prev1 == core.Suspected {
			t.Fatalf("query %d: D'_T2 made a T-transition but D'_T1 (suspected) did not", i)
		}
		prev1, prev2 = s1, s2
	}
}
