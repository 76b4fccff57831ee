package runner

import (
	"hybridmem/internal/model"
	"hybridmem/internal/results"
)

// MetricsFrom flattens a report into a results/v1 row's metrics.
func MetricsFrom(r *model.Report) *results.Metrics {
	return &results.Metrics{
		Accesses:            r.Accesses,
		AMATTotalNS:         r.AMAT.Total(),
		AMATHitsNS:          r.AMAT.HitDRAM + r.AMAT.HitNVM,
		AMATMigrationsNS:    r.AMAT.Migrations(),
		AMATMissNS:          r.AMAT.Miss,
		PowerTotalNJ:        r.APPR.Total(),
		PowerStaticNJ:       r.APPR.Static,
		PowerDynamicNJ:      r.APPR.Dynamic(),
		PowerPageFaultNJ:    r.APPR.PageFault(),
		PowerMigrationNJ:    r.APPR.Migration(),
		NVMWritesTotal:      r.NVMWrites.Total(),
		NVMWritesRequests:   r.NVMWrites.Requests,
		NVMWritesPageFault:  r.NVMWrites.PageFault,
		NVMWritesMigration:  r.NVMWrites.Migration,
		DRAMHitRatio:        r.Probabilities.PHitDRAM,
		NVMHitRatio:         r.Probabilities.PHitNVM,
		MissRatio:           r.Probabilities.PMiss,
		PromotionsPerAccess: r.Probabilities.PMigD,
		DemotionsPerAccess:  r.Probabilities.PMigN,
		RuntimeNS:           r.RuntimeNS,
	}
}
