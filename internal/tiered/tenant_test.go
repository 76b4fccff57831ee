package tiered

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridmem/internal/mm"
	"hybridmem/internal/trace"
)

func TestTenantConfigValidation(t *testing.T) {
	base := Config{DRAMPages: 8, NVMPages: 32}
	bad := []struct {
		name    string
		tenants []TenantConfig
	}{
		{"duplicate IDs", []TenantConfig{{ID: 1, DRAMQuota: 2}, {ID: 1, DRAMQuota: 2}}},
		{"quota sum exceeds DRAM", []TenantConfig{{ID: 0, DRAMQuota: 5}, {ID: 1, DRAMQuota: 5}}},
		{"negative quota", []TenantConfig{{ID: 0, DRAMQuota: -1}}},
		{"unreachable DRAM", []TenantConfig{{ID: 0, DRAMQuota: 0}, {ID: 1, DRAMQuota: 8}}},
	}
	for _, c := range bad {
		cfg := base
		cfg.Tenants = c.tenants
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}

	// A quota-free tenant is fine as long as spill frames exist.
	cfg := base
	cfg.Tenants = []TenantConfig{{ID: 0, DRAMQuota: 6}, {ID: 7, DRAMQuota: 0}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.SpillPool() != 2 {
		t.Fatalf("spill pool = %d, want 2", e.SpillPool())
	}
	if ids := e.TenantIDs(); len(ids) != 2 || ids[0] != 0 || ids[1] != 7 {
		t.Fatalf("TenantIDs = %v", ids)
	}
	st, ok := e.TenantStats(7)
	if !ok || st.DRAMQuota != 0 || st.DRAMCap != 2 || st.Name != "tenant-7" {
		t.Fatalf("TenantStats(7) = %+v, %v", st, ok)
	}
	if _, ok := e.TenantStats(3); ok {
		t.Fatal("TenantStats for unknown tenant succeeded")
	}
}

// TestQuotalessTenantDemotesBorrowersOnly covers the spill-contention
// corner: a tenant with no resident DRAM pages whose reservation needs a
// token must make room inside an over-quota tenant — within-quota
// neighbors are untouchable.
func TestQuotalessTenantDemotesBorrowersOnly(t *testing.T) {
	e, err := New(Config{
		// DRAM 8: quotas 4 + 3 + 0, spill 1.
		DRAMPages: 8, NVMPages: 64, Core: smallCore(),
		Tenants: []TenantConfig{
			{ID: 0, DRAMQuota: 4},
			{ID: 1, DRAMQuota: 3},
			{ID: 2, DRAMQuota: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	// Tenant 1 fills exactly its quota; tenant 0 takes its quota plus the
	// one spill token.
	for p := uint64(0); p < 3; p++ {
		if _, err := e.ServeTenant(1, p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint64(0); p < 5; p++ {
		if _, err := e.ServeTenant(0, p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}

	// Quota-less tenant 2 faults: its frames can only come from the spill
	// pool, so tenant 0 (the borrower) must shrink while within-quota
	// tenant 1 keeps every page.
	for p := uint64(0); p < 4; p++ {
		if _, err := e.ServeTenant(2, p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	s0, _ := e.TenantStats(0)
	s1, _ := e.TenantStats(1)
	s2, _ := e.TenantStats(2)
	if s1.ResidentDRAM != 3 || s1.Demotions != 0 {
		t.Fatalf("within-quota tenant 1 was victimized: %+v", s1)
	}
	if s0.ResidentDRAM != 4 {
		t.Fatalf("borrower tenant 0 residency = %d, want shrunk to quota 4", s0.ResidentDRAM)
	}
	if s2.ResidentDRAM != 1 {
		t.Fatalf("tenant 2 residency = %d, want the 1 spill frame", s2.ResidentDRAM)
	}
	if s2.Demotions == 0 {
		t.Fatal("tenant 2 never recycled its one frame across 4 faults")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestServeUnknownTenant(t *testing.T) {
	e, err := New(Config{
		DRAMPages: 4, NVMPages: 4,
		Tenants: []TenantConfig{{ID: 1, DRAMQuota: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if _, err := e.ServeTenant(2, 0, trace.OpRead); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v", err)
	}
	// Serve addresses the default tenant, which this engine lacks.
	if _, err := e.Serve(0, trace.OpRead); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Serve without default tenant = %v", err)
	}
	if _, err := e.ServeTenant(1, 0, trace.OpRead); err != nil {
		t.Fatal(err)
	}
}

// TestTenantNamespaceIsolation proves two tenants accessing the same
// addresses get distinct pages: each faults its own copy in, and each
// tenant's counters see only its own traffic.
func TestTenantNamespaceIsolation(t *testing.T) {
	e, err := New(Config{
		DRAMPages: 8, NVMPages: 32, Core: smallCore(),
		Tenants: []TenantConfig{{ID: 0, DRAMQuota: 4}, {ID: 1, DRAMQuota: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	for p := uint64(0); p < 3; p++ {
		if res, err := e.ServeTenant(0, p*4096, trace.OpRead); err != nil || !res.Fault {
			t.Fatalf("tenant 0 page %d: %+v, %v", p, res, err)
		}
	}
	// Tenant 1 touching the same addresses faults again: nothing shared.
	for p := uint64(0); p < 3; p++ {
		if res, err := e.ServeTenant(1, p*4096, trace.OpRead); err != nil || !res.Fault {
			t.Fatalf("tenant 1 page %d should fault independently: %+v, %v", p, res, err)
		}
	}
	// Re-touching is a hit for both, tallied separately.
	if res, err := e.ServeTenant(0, 0, trace.OpRead); err != nil || res.Fault {
		t.Fatalf("tenant 0 re-access: %+v, %v", res, err)
	}
	s0, _ := e.TenantStats(0)
	s1, _ := e.TenantStats(1)
	if s0.Accesses != 4 || s0.Faults != 3 || s0.Hits() != 1 {
		t.Fatalf("tenant 0 stats: %+v", s0)
	}
	if s1.Accesses != 3 || s1.Faults != 3 || s1.Hits() != 0 {
		t.Fatalf("tenant 1 stats: %+v", s1)
	}
	sum := e.Stats()
	if sum.Accesses != 7 || sum.Faults != 6 {
		t.Fatalf("global stats: %+v", sum)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantQuotaCap drives one tenant far past its DRAM share and checks
// the quota + spill cap holds while the other tenant can still use its
// guaranteed quota afterwards.
func TestTenantQuotaCap(t *testing.T) {
	e, err := New(Config{
		DRAMPages: 16, NVMPages: 256, Core: smallCore(),
		// 6 + 6 quota, 4 spill: each tenant caps at 10.
		Tenants: []TenantConfig{{ID: 0, DRAMQuota: 6}, {ID: 1, DRAMQuota: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	// Tenant 0 faults 100 pages (all to DRAM under the proposed policy):
	// its residency must stay at quota 6 + spill 4 = 10, never 16.
	for p := uint64(0); p < 100; p++ {
		if _, err := e.ServeTenant(0, p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	s0, _ := e.TenantStats(0)
	if s0.ResidentDRAM != 10 {
		t.Fatalf("tenant 0 DRAM residency = %d, want cap 10", s0.ResidentDRAM)
	}
	if s0.Demotions == 0 {
		t.Fatal("tenant 0 never demoted despite exceeding its cap")
	}

	// Tenant 1 still fits its full quota (and can borrow the rest of the
	// free global capacity up to its own cap).
	for p := uint64(0); p < 6; p++ {
		if _, err := e.ServeTenant(1, p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	s1, _ := e.TenantStats(1)
	if s1.ResidentDRAM != 6 {
		t.Fatalf("tenant 1 DRAM residency = %d, want 6", s1.ResidentDRAM)
	}
	if s1.Demotions != 0 {
		t.Fatalf("tenant 1 was forced to demote within its quota: %+v", s1)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillPoolAccounting pins the guarantee that makes a quota a
// guarantee: spill borrowing is token-accounted globally, so tenants
// cannot collectively over-borrow, an under-quota tenant always gets a
// frame without demoting anyone, and over-quota tenants make room in
// their own budget only.
func TestSpillPoolAccounting(t *testing.T) {
	e, err := New(Config{
		// 12 DRAM frames: quotas 3 + 3, spill 6.
		DRAMPages: 12, NVMPages: 256, Core: smallCore(),
		Tenants: []TenantConfig{{ID: 0, DRAMQuota: 3}, {ID: 1, DRAMQuota: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	// Tenant 0 faults 20 pages: it takes its quota 3 plus the whole spill
	// pool, landing at cap 9.
	for p := uint64(0); p < 20; p++ {
		if _, err := e.ServeTenant(0, p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	s0, _ := e.TenantStats(0)
	if s0.ResidentDRAM != 9 {
		t.Fatalf("tenant 0 residency = %d, want cap 9", s0.ResidentDRAM)
	}

	// Tenant 1 now faults its quota's worth: DRAM is physically full per
	// the old global accounting (9 + 3 = 12), but under token accounting
	// its quota frames are reserved for it — no demotion, no borrowing.
	for p := uint64(0); p < 3; p++ {
		if _, err := e.ServeTenant(1, p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	s1, _ := e.TenantStats(1)
	if s1.ResidentDRAM != 3 || s1.Demotions != 0 {
		t.Fatalf("tenant 1 under quota: residency %d, demotions %d; want 3, 0", s1.ResidentDRAM, s1.Demotions)
	}

	// A fourth page needs a spill token, and tenant 0 holds them all:
	// tenant 1 demotes its own page, tenant 0's borrowings are untouched.
	if _, err := e.ServeTenant(1, 3*4096, trace.OpRead); err != nil {
		t.Fatal(err)
	}
	s0, _ = e.TenantStats(0)
	s1, _ = e.TenantStats(1)
	if s1.ResidentDRAM != 3 || s1.Demotions != 1 {
		t.Fatalf("tenant 1 over quota: residency %d, demotions %d; want 3, 1", s1.ResidentDRAM, s1.Demotions)
	}
	if s0.ResidentDRAM != 9 || s0.Demotions != 11 {
		// 11 = tenant 0's own 20-9 demotions from its fault burst; tenant
		// 1's contention must not have added any.
		t.Fatalf("tenant 0 disturbed by tenant 1's faults: %+v", s0)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoTenantStress is the multi-tenant acceptance gate, run under
// -race in CI: two tenants with distinct skewed workloads hammer the
// engine concurrently while a sampler asserts that neither tenant's DRAM
// residency ever exceeds its quota plus the shared spill pool; afterwards
// both tenants must have made migration progress (no starvation).
func TestTwoTenantStress(t *testing.T) {
	const (
		dramPages = 64
		quota     = 24 // per tenant; spill = 64 - 48 = 16, cap = 40
		footprint = 512
		opsEach   = 12000
	)
	e, err := New(Config{
		DRAMPages: dramPages, NVMPages: 1024, Shards: 16, Core: smallCore(),
		ScanInterval: 200 * time.Microsecond,
		Workers:      2,
		BatchSize:    16,
		Tenants: []TenantConfig{
			{ID: 0, Name: "alpha", DRAMQuota: quota},
			{ID: 1, Name: "beta", DRAMQuota: quota},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	cap := int64(quota) + e.SpillPool()
	var wg sync.WaitGroup
	for _, tenant := range []TenantID{0, 1} {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(tenant TenantID, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsEach; i++ {
					op := trace.OpRead
					if rng.Intn(4) == 0 {
						op = trace.OpWrite
					}
					// Skewed: half the traffic on 1/8 of the pages, so the
					// daemon has hot NVM pages to promote for both tenants.
					p := uint64(rng.Intn(footprint))
					if rng.Intn(2) == 0 {
						p = uint64(rng.Intn(footprint / 8))
					}
					if _, err := e.ServeTenant(tenant, p*4096, op); err != nil {
						t.Error(err)
						return
					}
				}
			}(tenant, int64(tenant)*31+int64(w))
		}
	}
	// Sampler: the quota cap must hold at every instant, not just at rest.
	// It must not hammer ScanOnce back-to-back — every scan resets the
	// counter windows, and windows of a few microseconds never accumulate
	// past the threshold — so it samples at roughly the ticker's cadence.
	stopObs := make(chan struct{})
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		for {
			select {
			case <-stopObs:
				return
			default:
				for _, id := range []TenantID{0, 1} {
					if st, ok := e.TenantStats(id); ok && st.ResidentDRAM > cap {
						t.Errorf("tenant %d DRAM residency %d exceeds quota+spill %d", id, st.ResidentDRAM, cap)
						return
					}
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stopObs)
	obsWG.Wait()

	// Deterministic migration round before shutdown: hammer one
	// NVM-resident page per tenant past the threshold, then scan once.
	// Both tenants' candidates ride the same round-robin batch, so both
	// must make progress regardless of how the concurrent phase's scan
	// timing fell.
	for _, tenant := range []TenantID{0, 1} {
		var hot uint64
		found := false
		for p := uint64(0); p < footprint; p++ {
			if loc, ok := e.tbl.Peek(tenant, p); ok && loc == mm.LocNVM {
				hot, found = p, true
				break
			}
		}
		if !found {
			t.Fatalf("tenant %d has no NVM-resident page to heat", tenant)
		}
		for i := 0; i < 8; i++ {
			if _, err := e.ServeTenant(tenant, hot*4096, trace.OpWrite); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.ScanOnce(); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}

	for _, id := range []TenantID{0, 1} {
		st, _ := e.TenantStats(id)
		if st.Accesses != 4*opsEach+8 {
			t.Fatalf("tenant %d accesses = %d, want %d", id, st.Accesses, 4*opsEach+8)
		}
		if st.ResidentDRAM > cap {
			t.Fatalf("tenant %d final DRAM residency %d exceeds %d", id, st.ResidentDRAM, cap)
		}
		// No starvation: every tenant's hot pages got promotion budget.
		if st.Promotions == 0 {
			t.Fatalf("tenant %d starved: no promotions (%+v)", id, st)
		}
	}
	st0, _ := e.TenantStats(0)
	st1, _ := e.TenantStats(1)
	agg := e.Stats()
	if st0.Promotions+st1.Promotions != agg.Promotions {
		t.Fatalf("tenant promotions %d+%d != global %d", st0.Promotions, st1.Promotions, agg.Promotions)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSingleTenantDefaultsMatchLegacy pins the compatibility contract: a
// config without Tenants produces one default tenant owning all of DRAM,
// zero spill, and Serve routes to it.
func TestSingleTenantDefaultsMatchLegacy(t *testing.T) {
	e, err := New(Config{DRAMPages: 8, NVMPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if e.SpillPool() != 0 {
		t.Fatalf("spill = %d on a single-tenant engine", e.SpillPool())
	}
	ids := e.TenantIDs()
	if len(ids) != 1 || ids[0] != DefaultTenant {
		t.Fatalf("TenantIDs = %v", ids)
	}
	st, _ := e.TenantStats(DefaultTenant)
	if st.DRAMQuota != 8 || st.DRAMCap != 8 || st.Name != "default" {
		t.Fatalf("default tenant = %+v", st)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if _, err := e.Serve(0, trace.OpRead); err != nil {
		t.Fatal(err)
	}
	st, _ = e.TenantStats(DefaultTenant)
	if st.Accesses != 1 || st.Faults != 1 {
		t.Fatalf("default tenant stats after Serve: %+v", st)
	}
}
