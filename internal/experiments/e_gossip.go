package experiments

import (
	"fmt"
	"sync"
	"time"

	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/sim"
	"accrual/internal/stats"
)

// E13 is an extension experiment (not a direct paper claim): it scales
// the gossip-style monitoring service of van Renesse et al. — the
// large-scale deployment style the paper cites in §1.1/§6 — built from
// the daemon's own federation plane on the simulator (Cluster), and
// measures how accrual detection behaves when heartbeats arrive
// indirectly, as relayed digests. Two findings:
//
//   - per-node message load stays O(fanout) per round while crashes are
//     detected cluster-wide with latency growing only slowly in n (news
//     travels in O(log n) rounds);
//   - the update gaps a gossip observer sees are heavy-tailed, so the
//     distribution-estimating φ detector grows increasingly trigger-happy
//     with cluster size, while the miss-counting κ detector stays quiet —
//     the §5.4 argument resurfacing at the architecture level.
func E13(seed uint64) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "gossip-disseminated accrual detection at scale (extension)",
		Anchor:  "§1.1/§6 (gossip-style failure detection service), §5.4",
		Columns: []string{"nodes", "observer", "msgs/node/round", "frames/node/round", "max T_D (s)", "mean T_D (s)", "false suspicions"},
	}
	const (
		interval = 100 * time.Millisecond
		fanout   = 2
	)
	observers := []struct {
		name      string
		threshold core.Level
		mk        service.Factory
	}{
		{"phi>8", 8, func(_ string, start time.Time) core.Detector {
			return phi.New(start, phi.WithBootstrap(interval, interval/2))
		}},
		{"kappa>8", 8, func(_ string, start time.Time) core.Detector {
			return kappa.New(start, kappa.PLater{})
		}},
	}
	sizes := []int{8, 16, 32, 64}
	// The (size, observer) cells are independent, each on its own
	// simulator, so they run concurrently; results land by index, so the
	// table does not depend on scheduling.
	type cell struct {
		row       []string
		allDetect bool
		maxTD     float64
		falseSusp int
	}
	cells := make([]cell, len(sizes)*len(observers))
	var wg sync.WaitGroup
	for i := range cells {
		n, obs := sizes[i/len(observers)], observers[i%len(observers)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sim.New(seed + uint64(n))
			net := sim.NewNetwork(s, sim.Link{
				Delay: sim.RandomDelay{Dist: stats.Normal{Mu: 0.01, Sigma: 0.003}, Min: time.Millisecond},
			})
			ids := make([]string, n)
			for j := range ids {
				ids[j] = fmt.Sprintf("n%03d", j)
			}
			crashAt := sim.Epoch.Add(30 * time.Second)
			horizon := sim.Epoch.Add(60 * time.Second)
			c, err := NewCluster(ClusterConfig{
				Sim: s, Net: net, Nodes: ids, Fanout: fanout,
				Interval: interval,
				Crashes:  map[string]time.Time{"n000": crashAt},
				Horizon:  horizon,
				Detector: obs.mk,
			})
			if err != nil {
				panic(err)
			}
			detected := make(map[string]time.Duration, n)
			falseSusp := 0
			prevFalse := make(map[string]bool, n)
			witness := ids[len(ids)-1]
			s.Every(interval, horizon, func(now time.Time) {
				for _, id := range ids[1:] {
					mon := c.Node(id).Monitor()
					if _, ok := detected[id]; !ok && now.After(crashAt) {
						if lvl, _ := mon.Suspicion("n000"); lvl > obs.threshold {
							detected[id] = now.Sub(crashAt)
						}
					}
					if id == witness {
						continue
					}
					lvl, _ := mon.Suspicion(witness)
					isFalse := lvl > obs.threshold
					if isFalse && !prevFalse[id] {
						falseSusp++
					}
					prevFalse[id] = isFalse
				}
			})
			s.RunUntil(horizon)

			var maxTD, sumTD time.Duration
			for _, td := range detected {
				if td > maxTD {
					maxTD = td
				}
				sumTD += td
			}
			meanTD := time.Duration(0)
			if len(detected) > 0 {
				meanTD = sumTD / time.Duration(len(detected))
			}
			nodeRounds := float64(n) * float64(horizon.Sub(sim.Epoch)/interval)
			cnt := net.Counters()
			cells[i] = cell{
				row: []string{fmt.Sprintf("%d", n), obs.name,
					fmt.Sprintf("%.1f", float64(cnt.Sent)/nodeRounds),
					fmt.Sprintf("%.1f", float64(cnt.Frames)/nodeRounds),
					fmt.Sprintf("%.2f", maxTD.Seconds()),
					fmt.Sprintf("%.2f", meanTD.Seconds()),
					fmt.Sprintf("%d", falseSusp)},
				allDetect: len(detected) == n-1,
				maxTD:     maxTD.Seconds(),
				falseSusp: falseSusp,
			}
		}()
	}
	wg.Wait()
	falseByObserver := map[string]int{}
	maxTDByObserver := map[string][]float64{}
	allDetect := true
	for i, c := range cells {
		name := observers[i%len(observers)].name
		t.AddRow(c.row...)
		allDetect = allDetect && c.allDetect
		falseByObserver[name] += c.falseSusp
		maxTDByObserver[name] = append(maxTDByObserver[name], c.maxTD)
	}
	t.AddNote("federation digests gossiped every %v with fanout %d, a round's AFG1 frames to one peer in one message; n000 crashes at 30s; false suspicions counted against a live witness", interval, fanout)
	t.AddCheck("all-nodes-detect", allDetect,
		"every observer detects the crash at every cluster size, under both detectors")
	phiTDs := maxTDByObserver["phi>8"]
	subLinear := phiTDs[len(phiTDs)-1] < 4*phiTDs[0]
	t.AddCheck("latency-sublinear", subLinear,
		"max T_D grows %.2fs → %.2fs from %d to %d nodes (< 4x)",
		phiTDs[0], phiTDs[len(phiTDs)-1], sizes[0], sizes[len(sizes)-1])
	t.AddCheck("kappa-quiet-at-scale", falseByObserver["kappa>8"] < falseByObserver["phi>8"],
		"false suspicions across all sizes: kappa %d < phi %d (heavy-tailed gossip gaps overwhelm the normal model; counting misses does not)",
		falseByObserver["kappa>8"], falseByObserver["phi>8"])
	return t
}
