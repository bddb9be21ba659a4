package experiments

import (
	"fmt"
	"time"

	"accrual/internal/core"
	"accrual/internal/qos"
	"accrual/internal/service"
	"accrual/internal/sim"
	"accrual/internal/trace"
)

// e9App describes one application sharing the monitor in E9.
type e9App struct {
	name   string
	policy service.Policy
	label  string
}

// E9 reproduces the architectural claim of Figures 1–2 and §1.2/§4.4: a
// single monitoring service simultaneously serves applications with
// different QoS needs, each interpreting the same suspicion levels
// through its own policy. Aggressive applications detect faster but make
// more mistakes; conservative ones the reverse — on the same monitor.
func E9(seed uint64) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "one monitor, many interpreters: differentiated QoS",
		Anchor:  "Figures 1–2, §1.2, §1.5, §4.4",
		Columns: []string{"application", "policy", "T_D (ms)", "detected", "lambda_M (1/min)", "P_A"},
	}
	apps := []e9App{
		{"realtime", service.ConstantPolicy(1), "phi > 1"},
		{"batch", service.ConstantPolicy(3), "phi > 3"},
		{"archival", service.ConstantPolicy(8), "phi > 8"},
		{"autotuned", service.AdaptivePolicy(), "Algorithm 1"},
	}

	type measured struct {
		td       time.Duration
		detected bool
		lam, pa  float64
	}
	results := make(map[string]*measured, len(apps))
	for _, a := range apps {
		results[a.name] = &measured{}
	}

	runOnce := func(seed uint64, crash bool, capture func(app string, rep qos.Report)) {
		s := sim.New(seed)
		w := AccuracyWorkload()
		if crash {
			w = CrashWorkload()
		}
		net := sim.NewNetwork(s, sim.Link{Delay: w.Delay, Loss: w.Loss})
		mon := service.NewMonitor(s, func(_ string, start time.Time) core.Detector {
			return phiFactory()(start)
		})
		var crashAt time.Time
		if crash {
			crashAt = s.Now().Add(w.CrashAfter)
		}
		end := s.Now().Add(w.Horizon)
		start := s.Now()
		em := &sim.Emitter{
			Sim: s, Net: net, From: "p", To: "monitor",
			Interval: w.Interval, Jitter: w.Jitter,
			CrashAt: crashAt, Until: end,
			Sink: func(hb core.Heartbeat) { _ = mon.Heartbeat(hb) },
		}
		em.Start()
		observers := make(map[string]*trace.StatusObserver, len(apps))
		handles := make([]*service.App, len(apps))
		for i, a := range apps {
			obs := trace.NewStatusObserver(core.Trusted)
			observers[a.name] = obs
			handles[i] = mon.NewApp(a.name, a.policy)
		}
		pr := &sim.Prober{
			Sim: s, Every: w.QueryEvery, Until: end,
			Query: func(now time.Time) {
				for i, a := range apps {
					st, err := handles[i].Status("p")
					if err != nil {
						return // no heartbeat yet: process unknown
					}
					observers[a.name].Observe(now, st)
				}
			},
		}
		pr.Start()
		s.RunUntil(end)
		for _, a := range apps {
			rep, err := qos.Evaluate(qos.Input{
				Transitions: observers[a.name].Transitions(),
				Start:       start, End: end, CrashAt: crashAt,
			})
			if err != nil {
				panic(err)
			}
			capture(a.name, rep)
		}
	}

	runOnce(seed, true, func(app string, rep qos.Report) {
		results[app].td = rep.TD
		results[app].detected = rep.Detected
	})
	runOnce(seed+500, false, func(app string, rep qos.Report) {
		results[app].lam = rep.LambdaM * 60
		results[app].pa = rep.PA
	})

	for _, a := range apps {
		m := results[a.name]
		t.AddRow(a.name, a.label,
			fmt.Sprintf("%.0f", float64(m.td.Milliseconds())),
			fmt.Sprintf("%v", m.detected),
			fmt.Sprintf("%.3f", m.lam),
			fmt.Sprintf("%.6f", m.pa))
	}
	t.AddNote("all applications query the SAME service.Monitor over the same heartbeat stream; crash run 90s (crash at 60s), accuracy run %v", AccuracyWorkload().Horizon)

	rt, ba, ar := results["realtime"], results["batch"], results["archival"]
	ordered := rt.detected && ba.detected && ar.detected &&
		rt.td <= ba.td && ba.td <= ar.td
	t.AddCheck("Cor2-TD-ordered-across-apps", ordered,
		"T_D: realtime %v <= batch %v <= archival %v", rt.td, ba.td, ar.td)
	t.AddCheck("Cor3-PA-ordered-across-apps",
		rt.pa <= ba.pa+1e-12 && ba.pa <= ar.pa+1e-12,
		"P_A: realtime %.6f <= batch %.6f <= archival %.6f", rt.pa, ba.pa, ar.pa)
	t.AddCheck("autotuned-detects", results["autotuned"].detected,
		"the parameter-free Algorithm 1 interpreter also detects the crash (T_D %v)", results["autotuned"].td)
	return t
}
