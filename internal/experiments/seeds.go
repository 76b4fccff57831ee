package experiments

import "fmt"

// SeedStudy quantifies how sensitive the headline metrics are to the random
// seed of trace generation: the paper reports single runs; this study backs
// the reproduction's numbers with across-seed statistics.
type SeedStudy struct {
	Seeds int
	// Each metric summarizes one headline ratio across seeds.
	PowerVsDRAM     MetricSummary
	AMATVsDWF       MetricSummary
	WritesVsNVMOnly MetricSummary
}

// MetricSummary is mean +/- population standard deviation across seeds.
type MetricSummary struct {
	Mean, StdDev, Min, Max float64
}

func summarize(xs []float64) MetricSummary {
	var s summary
	for _, x := range xs {
		s.add(x)
	}
	return MetricSummary{Mean: s.mean(), StdDev: s.stdDev(), Min: s.min, Max: s.max}
}

// String renders the summary as "mean ± stddev [min, max]".
func (m MetricSummary) String() string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f]", m.Mean, m.StdDev, m.Min, m.Max)
}

// RunSeeds evaluates the full workload set across several seeds and returns
// the distribution of the geometric-mean headline metrics.
func RunSeeds(cfg Config, seeds []int64) (*SeedStudy, error) {
	if len(seeds) < 2 {
		return nil, fmt.Errorf("experiments: seed study needs >= 2 seeds")
	}
	var power, amat, writes []float64
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		// A private cache per seed: each seed's traces are distinct, and
		// dropping the cache between seeds keeps the study's footprint at
		// one grid's worth of materialized traces.
		c.Cache = nil
		runs, err := RunAll(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		var pr, ar, wr []float64
		for _, r := range runs {
			prop := r.Report(Proposed)
			dram := r.Report(DRAMOnly)
			dwf := r.Report(ClockDWF)
			nvm := r.Report(NVMOnly)
			pr = append(pr, prop.APPR.Total()/dram.APPR.Total())
			dwfAMAT := dwf.AMAT.HitDRAM + dwf.AMAT.HitNVM + dwf.AMAT.Migrations()
			propAMAT := prop.AMAT.HitDRAM + prop.AMAT.HitNVM + prop.AMAT.Migrations()
			ar = append(ar, propAMAT/dwfAMAT)
			if w := nvm.NVMWrites.Total(); w > 0 {
				wr = append(wr, float64(prop.NVMWrites.Total())/float64(w))
			}
		}
		p, err := geoMean(pr)
		if err != nil {
			return nil, err
		}
		a, err := geoMean(ar)
		if err != nil {
			return nil, err
		}
		w, err := geoMean(wr)
		if err != nil {
			return nil, err
		}
		power = append(power, p)
		amat = append(amat, a)
		writes = append(writes, w)
	}
	return &SeedStudy{
		Seeds:           len(seeds),
		PowerVsDRAM:     summarize(power),
		AMATVsDWF:       summarize(amat),
		WritesVsNVMOnly: summarize(writes),
	}, nil
}
