package experiments

import (
	"fmt"
	"io"
)

// Claims holds the paper's headline quantitative claims, extracted from a
// full run so EXPERIMENTS.md can record paper-vs-measured side by side.
// All improvement values are fractions (0.43 = 43% reduction); negative
// values mean the proposed scheme was worse.
type Claims struct {
	// PowerVsDRAM: proposed-scheme power reduction vs the DRAM-only
	// baseline (paper: up to 79%, 43% geometric mean).
	PowerVsDRAMMax, PowerVsDRAMAvg float64
	// PowerVsDWF: power reduction vs CLOCK-DWF (paper: up to 48%, 14% avg).
	PowerVsDWFMax, PowerVsDWFAvg float64
	// AMATVsDWF: AMAT improvement vs CLOCK-DWF (paper: up to 70%, 48% avg).
	AMATVsDWFMax, AMATVsDWFAvg float64
	// WritesVsDWF: NVM write reduction vs CLOCK-DWF (paper: up to 93%,
	// 64% avg).
	WritesVsDWFMax, WritesVsDWFAvg float64
	// WritesVsNVMOnly: NVM write reduction vs an NVM-only memory (paper: up
	// to 75%, 49% avg, lifetime up to 4x).
	WritesVsNVMOnlyMax, WritesVsNVMOnlyAvg float64
	// DWFWritesExceedNVMOnlyMax: CLOCK-DWF's worst writes-vs-NVM-only ratio
	// (paper: up to 3.7x).
	DWFWritesExceedNVMOnlyMax float64
	// StaticShareLo/Hi: range of the static component in DRAM-only power
	// across workloads, excluding the streamcluster outlier (paper: 60-80%).
	StaticShareLo, StaticShareHi float64
	// StreamclusterStaticShare is the outlier's static share (paper: small,
	// dynamic-dominated).
	StreamclusterStaticShare float64
	// DWFMigrationPowerShareMax: largest migration share of CLOCK-DWF total
	// power (paper: >40% in many workloads).
	DWFMigrationPowerShareMax float64
	// DWFMigrationAMATShareMax: largest migration share of CLOCK-DWF AMAT
	// (paper: >60%).
	DWFMigrationAMATShareMax float64
}

// reduction converts ratios (policy/baseline) into max/avg reductions.
func reduction(ratios []float64) (max, avg float64) {
	for _, r := range ratios {
		if red := 1 - r; red > max {
			max = red
		}
	}
	g, err := geoMean(ratios)
	if err != nil {
		return max, 0
	}
	return max, 1 - g
}

// ExtractClaims computes the headline numbers from a full run set.
func ExtractClaims(runs []*WorkloadRun) Claims {
	var c Claims
	var propVsDRAM, propVsDWFPower, propVsDWFAMAT []float64
	var propVsDWFWrites, propVsNVMWrites []float64
	c.StaticShareLo = 1
	for _, r := range runs {
		dram := r.Report(DRAMOnly)
		nvm := r.Report(NVMOnly)
		dwf := r.Report(ClockDWF)
		prop := r.Report(Proposed)

		propVsDRAM = append(propVsDRAM, prop.APPR.Total()/dram.APPR.Total())
		propVsDWFPower = append(propVsDWFPower, prop.APPR.Total()/dwf.APPR.Total())

		dwfAMAT := dwf.AMAT.HitDRAM + dwf.AMAT.HitNVM + dwf.AMAT.Migrations()
		propAMAT := prop.AMAT.HitDRAM + prop.AMAT.HitNVM + prop.AMAT.Migrations()
		propVsDWFAMAT = append(propVsDWFAMAT, propAMAT/dwfAMAT)

		if w := dwf.NVMWrites.Total(); w > 0 {
			propVsDWFWrites = append(propVsDWFWrites, float64(prop.NVMWrites.Total())/float64(w))
		}
		if w := nvm.NVMWrites.Total(); w > 0 {
			propVsNVMWrites = append(propVsNVMWrites, float64(prop.NVMWrites.Total())/float64(w))
			if ratio := float64(dwf.NVMWrites.Total()) / float64(w); ratio > c.DWFWritesExceedNVMOnlyMax {
				c.DWFWritesExceedNVMOnlyMax = ratio
			}
		}

		share := dram.APPR.Static / dram.APPR.Total()
		if r.Workload.Name == "streamcluster" {
			c.StreamclusterStaticShare = share
		} else {
			if share < c.StaticShareLo {
				c.StaticShareLo = share
			}
			if share > c.StaticShareHi {
				c.StaticShareHi = share
			}
		}

		if s := dwf.APPR.Migration() / dwf.APPR.Total(); s > c.DWFMigrationPowerShareMax {
			c.DWFMigrationPowerShareMax = s
		}
		if dwfAMAT > 0 {
			if s := dwf.AMAT.Migrations() / dwfAMAT; s > c.DWFMigrationAMATShareMax {
				c.DWFMigrationAMATShareMax = s
			}
		}
	}
	c.PowerVsDRAMMax, c.PowerVsDRAMAvg = reduction(propVsDRAM)
	c.PowerVsDWFMax, c.PowerVsDWFAvg = reduction(propVsDWFPower)
	c.AMATVsDWFMax, c.AMATVsDWFAvg = reduction(propVsDWFAMAT)
	c.WritesVsDWFMax, c.WritesVsDWFAvg = reduction(propVsDWFWrites)
	c.WritesVsNVMOnlyMax, c.WritesVsNVMOnlyAvg = reduction(propVsNVMWrites)
	return c
}

// Write renders paper-vs-measured claims as text.
func (c Claims) Write(w io.Writer) error {
	type row struct {
		claim, paper, measured string
	}
	pct := func(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
	rows := []row{
		{"power vs DRAM-only: max reduction", "79%", pct(c.PowerVsDRAMMax)},
		{"power vs DRAM-only: avg reduction", "43%", pct(c.PowerVsDRAMAvg)},
		{"power vs CLOCK-DWF: max reduction", "48%", pct(c.PowerVsDWFMax)},
		{"power vs CLOCK-DWF: avg reduction", "14%", pct(c.PowerVsDWFAvg)},
		{"AMAT vs CLOCK-DWF: max improvement", "70%", pct(c.AMATVsDWFMax)},
		{"AMAT vs CLOCK-DWF: avg improvement", "48%", pct(c.AMATVsDWFAvg)},
		{"NVM writes vs CLOCK-DWF: max reduction", "93%", pct(c.WritesVsDWFMax)},
		{"NVM writes vs CLOCK-DWF: avg reduction", "64%", pct(c.WritesVsDWFAvg)},
		{"NVM writes vs NVM-only: max reduction", "75%", pct(c.WritesVsNVMOnlyMax)},
		{"NVM writes vs NVM-only: avg reduction", "49%", pct(c.WritesVsNVMOnlyAvg)},
		{"CLOCK-DWF writes vs NVM-only: worst ratio", "3.7x",
			fmt.Sprintf("%.1fx", c.DWFWritesExceedNVMOnlyMax)},
		{"DRAM-only static power share (range)", "60-80%",
			fmt.Sprintf("%s-%s", pct(c.StaticShareLo), pct(c.StaticShareHi))},
		{"streamcluster static share (outlier)", "small",
			pct(c.StreamclusterStaticShare)},
		{"CLOCK-DWF migration power share (max)", ">40%", pct(c.DWFMigrationPowerShareMax)},
		{"CLOCK-DWF migration AMAT share (max)", ">60%", pct(c.DWFMigrationAMATShareMax)},
	}
	tab := struct {
		w1, w2 int
	}{}
	for _, r := range rows {
		if len(r.claim) > tab.w1 {
			tab.w1 = len(r.claim)
		}
		if len(r.paper) > tab.w2 {
			tab.w2 = len(r.paper)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %-*s  %s\n", tab.w1, "claim", tab.w2, "paper", "measured"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-*s  %-*s  %s\n", tab.w1, r.claim, tab.w2, r.paper, r.measured); err != nil {
			return err
		}
	}
	return nil
}
