package tiered

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridmem/internal/core"
	"hybridmem/internal/memspec"
	"hybridmem/internal/mm"
	"hybridmem/internal/obs"
	"hybridmem/internal/trace"
)

// Engine lifecycle errors.
var (
	// ErrNotStarted is returned by Serve before Start.
	ErrNotStarted = errors.New("tiered: engine not started")
	// ErrStopped is returned by Serve after Stop.
	ErrStopped = errors.New("tiered: engine stopped")
	// ErrUnknownTenant is returned by ServeTenant for a tenant the engine
	// was not configured with.
	ErrUnknownTenant = errors.New("tiered: unknown tenant")
)

// ErrPageRange is returned for an address whose page number does not fit
// the namespaced keyspace. It is a prebuilt sentinel, not a per-call
// fmt.Errorf, so a flood of out-of-range addresses (hashed string keys
// cover the full 64-bit space) is rejected without allocating.
var ErrPageRange = fmt.Errorf("tiered: page exceeds the %d-bit namespaced keyspace", pageBits)

// maxFaultRetries bounds the reserve/insert retry loops on the fault path.
// Each retry means another goroutine won a race; hitting the bound would
// take adversarial scheduling, so it is treated as a bug, not backpressure.
const maxFaultRetries = 256

// Config describes an online engine.
type Config struct {
	// Policy selects the migration algorithm (default Proposed). Every
	// tenant runs its own instance of the same policy kind, so adaptive
	// threshold state is independent per tenant.
	Policy Kind
	// DRAMPages and NVMPages are the zone capacities in frames; both must
	// be at least 1.
	DRAMPages, NVMPages int
	// Topology splits the zone capacities across NUMA nodes: per-node
	// DRAM/NVM frame pools, shard groups mapped to home nodes, and one
	// migration pipeline per node. Placement prefers a page's home node
	// and goes remote only when the home node cannot hand the tenant a
	// frame (pool full, or the tenant past its node share with the spill
	// pool fully borrowed). The zero value is a single uniform
	// node, which behaves bit-identically to the pre-topology engine.
	// When Topology.Nodes is set, its pools must sum to DRAMPages and
	// NVMPages exactly.
	Topology Topology
	// Tenants partitions the engine into isolated page namespaces with
	// per-tenant DRAM quotas. DRAM frames covered by no quota form the
	// shared spill pool every tenant may borrow from; a tenant's DRAM
	// residency never exceeds its quota plus the spill pool. Nil means a
	// single DefaultTenant owning all of DRAM — the engine then behaves
	// exactly like the pre-tenant, single-namespace engine. Quotas must
	// total at most DRAMPages and IDs must be unique.
	Tenants []TenantConfig
	// Shards is the page-table shard count, rounded up to a power of two.
	// 0 picks 4x GOMAXPROCS; 1 is the single-lock baseline.
	Shards int
	// Core carries the proposed scheme's thresholds and windows (zero
	// value = core.DefaultConfig()).
	Core core.Config
	// Adaptive tunes the adaptive controller (zero value =
	// core.DefaultAdaptiveConfig(); only used by Kind Adaptive).
	Adaptive core.AdaptiveConfig
	// Spec supplies the technology parameters the thresholds are costed
	// against (zero value = memspec.Default()).
	Spec memspec.Spec
	// ScanInterval is the daemon's hotness-scan period (default 2ms).
	ScanInterval time.Duration
	// BatchSize caps the pages per promotion batch (default 128).
	BatchSize int
	// Workers is the number of migration worker goroutines per NUMA node
	// (default 1): every node's promotion pipeline gets its own pinned
	// worker pool, so an N-node engine runs N*Workers workers in total.
	Workers int
	// QueueLen is the promotion-queue depth in batches, per NUMA node
	// (default 16) — each node's pipeline has its own queue. When a queue
	// is full, batches are dropped and counted: migration is a hint, and
	// a page that stays hot is re-found next epoch.
	QueueLen int
	// WarmupRate caps how many restored-hot pages the warm-up feeder may
	// enqueue per node per ScanInterval tick after Restore (default
	// 2*BatchSize). The cap turns the post-restart promotion storm into a
	// paced replay: a few migration epochs instead of one burst that would
	// monopolize the promotion queues against live scan traffic.
	WarmupRate int
	// WarmupDRAMTopK is age-tiered warm-up: Restore places up to this many
	// of the hottest checkpoint-warm pages directly into DRAM (quota- and
	// node-pool-permitting) before serving begins, leaving only the tail
	// to the paced storm. 0 (the default) restores everything into NVM
	// and lets the storm re-promote — the pre-delta-log behavior.
	WarmupDRAMTopK int
	// Events, when non-nil, receives one obs.Event per migration decision
	// (promotion, demotion, eviction, drop) with tenant, node and tier
	// attribution — the trace the admin plane's /events endpoint streams.
	// Publishing is lock-free and allocation-free; a nil ring costs the
	// migration paths a single branch and the serve hit path nothing.
	Events *obs.EventRing
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = Proposed
	}
	if c.Shards == 0 {
		c.Shards = 4 * runtime.GOMAXPROCS(0)
	}
	if (c.Core == core.Config{}) {
		c.Core = core.DefaultConfig()
	}
	if (c.Adaptive == core.AdaptiveConfig{}) {
		c.Adaptive = core.DefaultAdaptiveConfig()
	}
	if c.Spec.Geometry.PageSizeBytes == 0 {
		c.Spec = memspec.Default()
	}
	if c.ScanInterval == 0 {
		c.ScanInterval = 2 * time.Millisecond
	}
	if c.BatchSize == 0 {
		c.BatchSize = 128
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.QueueLen == 0 {
		c.QueueLen = 16
	}
	if c.WarmupRate == 0 {
		c.WarmupRate = 2 * c.BatchSize
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []TenantConfig{{ID: DefaultTenant, Name: "default", DRAMQuota: c.DRAMPages}}
	} else {
		// Copy before filling defaults: the caller's slice must not be
		// mutated as a side effect of New.
		c.Tenants = append([]TenantConfig(nil), c.Tenants...)
	}
	for i := range c.Tenants {
		if c.Tenants[i].Priority == 0 {
			c.Tenants[i].Priority = 1
		}
	}
	c.Topology = c.Topology.withDefaults(c.DRAMPages, c.NVMPages)
	return c
}

// ServeResult is the outcome of one access.
type ServeResult struct {
	// ServedFrom is the zone that serviced the request (for a fault, the
	// zone the page was loaded into).
	ServedFrom mm.Location
	// Fault reports that the page was not resident.
	Fault bool
}

// Stats is a snapshot of the engine's event counters, summed across
// tenants. The access counters mirror sim.Counts so the two accountings
// are directly comparable; TenantStats breaks them down per tenant.
type Stats struct {
	Accesses                                                  int64
	ReadsDRAM, WritesDRAM, ReadsNVM, WritesNVM                int64
	Faults, FaultsToDRAM, FaultsToNVM                         int64
	Promotions                                                int64
	Demotions, DemotionsFault, DemotionsPromo, DemotionsClean int64
	Evictions                                                 int64
	// Daemon counters: scan epochs run, promotion batches enqueued, and
	// batches dropped on a full queue.
	Scans, Batches, QueueDrops int64
	// Remote placement counters, summed over nodes: faults and promotions
	// whose frame came from a pool other than the page's home node, and
	// demotions that crossed nodes on the way to NVM. All zero on a
	// single-node engine; NodeStats has the per-node breakdown.
	RemoteFaults, RemotePromotions, RemoteDemotions int64
	// ResidentDRAM and ResidentNVM are the current zone occupancies.
	ResidentDRAM, ResidentNVM int64
}

// Hits returns the number of non-faulting accesses.
func (s Stats) Hits() int64 { return s.ReadsDRAM + s.WritesDRAM + s.ReadsNVM + s.WritesNVM }

// HitsDRAM returns hits serviced by DRAM.
func (s Stats) HitsDRAM() int64 { return s.ReadsDRAM + s.WritesDRAM }

// HitsNVM returns hits serviced by NVM.
func (s Stats) HitsNVM() int64 { return s.ReadsNVM + s.WritesNVM }

// Sub returns the event-count deltas since prev. The occupancy fields are
// levels, not counts, and are carried over unchanged.
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		Accesses:         s.Accesses - prev.Accesses,
		ReadsDRAM:        s.ReadsDRAM - prev.ReadsDRAM,
		WritesDRAM:       s.WritesDRAM - prev.WritesDRAM,
		ReadsNVM:         s.ReadsNVM - prev.ReadsNVM,
		WritesNVM:        s.WritesNVM - prev.WritesNVM,
		Faults:           s.Faults - prev.Faults,
		FaultsToDRAM:     s.FaultsToDRAM - prev.FaultsToDRAM,
		FaultsToNVM:      s.FaultsToNVM - prev.FaultsToNVM,
		Promotions:       s.Promotions - prev.Promotions,
		Demotions:        s.Demotions - prev.Demotions,
		DemotionsFault:   s.DemotionsFault - prev.DemotionsFault,
		DemotionsPromo:   s.DemotionsPromo - prev.DemotionsPromo,
		DemotionsClean:   s.DemotionsClean - prev.DemotionsClean,
		Evictions:        s.Evictions - prev.Evictions,
		Scans:            s.Scans - prev.Scans,
		Batches:          s.Batches - prev.Batches,
		QueueDrops:       s.QueueDrops - prev.QueueDrops,
		RemoteFaults:     s.RemoteFaults - prev.RemoteFaults,
		RemotePromotions: s.RemotePromotions - prev.RemotePromotions,
		RemoteDemotions:  s.RemoteDemotions - prev.RemoteDemotions,
		ResidentDRAM:     s.ResidentDRAM,
		ResidentNVM:      s.ResidentNVM,
	}
	return d
}

// cacheLine is the padding unit the counter blocks are laid out in.
const cacheLine = 64

// padCounter is an atomic counter alone on its cache line: fields that
// stay engine-global (they are off the hit path) still must not share a
// line, or a fault burst would invalidate every counter next to it on
// every core.
type padCounter struct {
	atomic.Int64
	_ [cacheLine - 8]byte
}

// serveCell is one stripe of the engine's per-access counters: the five
// fields every hit touches, together on one line, padded two lines apart
// so the adjacent-line prefetcher cannot couple neighboring stripes. The
// hit path picks a stripe from the page key, so cores serving different
// pages tally on different lines and never contend.
type serveCell struct {
	accesses   atomic.Int64
	readsDRAM  atomic.Int64
	writesDRAM atomic.Int64
	readsNVM   atomic.Int64
	writesNVM  atomic.Int64
	_          [2*cacheLine - 5*8]byte
}

// maxStripes caps the serve-cell count (per engine and per tenant): beyond
// this, more stripes buy no contention relief, only summing work.
const maxStripes = 64

// counters is the engine's rare-path tally block: everything the fault,
// migration and daemon paths count. The per-access counters live in the
// striped serve cells instead and are aggregated lazily by Stats.
type counters struct {
	faults, faultsToDRAM, faultsToNVM                         padCounter
	promotions                                                padCounter
	demotions, demotionsFault, demotionsPromo, demotionsClean padCounter
	evictions                                                 padCounter
	scans, batches, queueDrops                                padCounter
	// candidates counts scan-identified hot pages across all epochs;
	// coalesced counts candidates skipped because a previous epoch's
	// promotion of the same page was still in flight.
	candidates, coalesced padCounter
}

// Engine lifecycle states.
const (
	stateNew int32 = iota
	stateStarted
	stateStopped
)

// dramReserve is the outcome of a DRAM frame reservation.
type dramReserve int

const (
	// dramReserved: one frame claimed from some node's pool (and, above
	// the tenant's share on that node, one spill token taken).
	dramReserved dramReserve = iota
	// dramTenantFull: the tenant is at quota + spill; it must demote one
	// of its own pages to proceed.
	dramTenantFull
	// dramSpillFull: every node with physical room would put the tenant
	// above its apportioned share there, and the shared spill pool is
	// fully borrowed. A tenant holding DRAM demotes its own coldest
	// (preferring a node where it is over share, which frees a token); a
	// quota-less tenant demotes within some token-holding tenant.
	dramSpillFull
	// dramNodeFull: every node's DRAM pool is physically full. Handled
	// like dramSpillFull — freeing any frame (own page first, else a
	// borrower's) unblocks the retry. Unreachable on a single node, where
	// the tenant-level checks bound total occupancy below capacity.
	dramNodeFull
)

// Engine is the online tiered-memory engine. Serve and ServeTenant are
// safe for concurrent use by any number of goroutines once Start has
// returned; Stop shuts the migration daemon down gracefully (in-flight
// batches drain first).
type Engine struct {
	cfg      Config
	tbl      *Table
	pageSize uint64
	// pageShift is log2(pageSize) when the page size is a power of two —
	// every shipped geometry — so the serve paths derive page numbers with
	// a shift instead of a 64-bit divide; -1 selects the division fallback
	// for exotic geometries (any positive multiple of the line size is
	// legal).
	pageShift int

	// tenants is immutable after New; def caches the DefaultTenant's
	// state so Serve skips the map lookup on the hot path.
	tenants map[TenantID]*tenantState
	// tenantList is ID-sorted, the deterministic iteration order of scans
	// and reports.
	tenantList []*tenantState
	def        *tenantState
	spill      int64
	// nodes is the NUMA topology's runtime state: one CAS-exact DRAM/NVM
	// frame pool per node (the per-node split of the old global
	// dramUsed/nvmUsed), plus each node's placement counters and its
	// slice of the migration daemon. multiNode gates the extra hot-path
	// work (per-node access attribution), so a single-node engine's serve
	// path is exactly the flat engine's.
	nodes     []*nodeState
	multiNode bool
	// spillUsed counts the spill-pool frames currently borrowed across
	// all tenants (every tenant frame above its per-node quota share
	// holds one token; the pool is borrowable from any node). It stays an
	// exact CAS-maintained level on its own cache line: quota enforcement
	// needs a precise value, and hits never touch it.
	_         [cacheLine]byte
	spillUsed atomic.Int64
	_         [cacheLine - 8]byte

	// dramCap and nvmCap are the zone totals (the sums of the node
	// pools), kept for capacity messages and invariant checks.
	dramCap, nvmCap int64

	// serveCells stripes the per-access counters by page key; Stats sums
	// them lazily. stripeMask is len(serveCells)-1 (a power of two).
	serveCells []serveCell
	stripeMask uint64
	// scratchPool recycles ServeTenantBatch staging buffers (batch.go), so
	// steady-state batched serves allocate nothing.
	scratchPool sync.Pool

	c     counters
	state atomic.Int32

	// Daemon plumbing. One scanner drives a scan/promotion pipeline per
	// node — each node has its own candidate scratch, promotion queue and
	// node-pinned workers (on nodeState) — and batches are pooled: the
	// scanner takes buffers from batchPool and the workers return them
	// after draining, so steady-state epochs allocate nothing.
	stopCh    chan struct{}
	batchPool sync.Pool
	scanWG    sync.WaitGroup
	workerWG  sync.WaitGroup
	scanMu    sync.Mutex
	// inflight holds the table keys of pages enqueued for promotion but
	// not yet applied, so a page scanned hot in consecutive epochs is not
	// enqueued twice.
	inflightMu sync.Mutex
	inflight   map[uint64]struct{}
	// drained closes once the winning Stop has fully quiesced the daemon,
	// so a Stop that loses the race still waits for the drain guarantee.
	drained chan struct{}

	// Restore / warm-up state (restore.go). warmup is the checkpointed hot
	// set queued by Restore (score-descending), fed into the per-node
	// promotion queues by warmupLoop after Start; warmWG tracks that
	// feeder. The counters are read by metrics and artifacts.
	warmup       []candidate
	warmWG       sync.WaitGroup
	restored     atomic.Int64
	restoreSkips atomic.Int64
	warmPending  atomic.Int64
	warmEnqueued atomic.Int64
	warmDirect   atomic.Int64

	// ring is the optional migration-event trace (Config.Events); nil
	// when no observer is attached.
	ring *obs.EventRing
	// Scan-epoch introspection, written only under scanMu (single
	// writer): last/max epoch duration and the candidate count of the
	// last epoch. Read lock-free by DaemonStats.
	scanDurLast, scanDurMax atomic.Int64
	candLast                atomic.Int64
}

// New builds an engine. Call Start before Serve.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.DRAMPages < 1 || cfg.NVMPages < 1 {
		return nil, fmt.Errorf("tiered: both zones need frames, got %d/%d", cfg.DRAMPages, cfg.NVMPages)
	}
	if err := cfg.Topology.validate(cfg.DRAMPages, cfg.NVMPages); err != nil {
		return nil, err
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.BatchSize < 1 || cfg.Workers < 1 || cfg.QueueLen < 1 || cfg.ScanInterval < 0 {
		return nil, fmt.Errorf("tiered: invalid daemon config (batch %d, workers %d, queue %d, interval %v)",
			cfg.BatchSize, cfg.Workers, cfg.QueueLen, cfg.ScanInterval)
	}
	if cfg.WarmupRate < 1 {
		return nil, fmt.Errorf("tiered: invalid warm-up rate %d", cfg.WarmupRate)
	}
	if cfg.WarmupDRAMTopK < 0 {
		return nil, fmt.Errorf("tiered: invalid warm-up DRAM top-K %d", cfg.WarmupDRAMTopK)
	}
	spill, err := validateTenants(cfg.Tenants, cfg.DRAMPages)
	if err != nil {
		return nil, err
	}
	numNodes := cfg.Topology.NumNodes()
	tbl, err := NewTableNUMA(cfg.Shards, numNodes)
	if err != nil {
		return nil, err
	}
	// Record the rounded-up shard count: Config() reports what the table
	// actually uses, and tierd's artifact must attribute results to it.
	cfg.Shards = tbl.NumShards()
	stripes := cfg.Shards
	if stripes > maxStripes {
		stripes = maxStripes
	}
	pageShift := -1
	if ps := uint64(cfg.Spec.Geometry.PageSizeBytes); ps&(ps-1) == 0 {
		pageShift = bits.TrailingZeros64(ps)
	}
	e := &Engine{
		cfg:        cfg,
		tbl:        tbl,
		pageSize:   uint64(cfg.Spec.Geometry.PageSizeBytes),
		pageShift:  pageShift,
		tenants:    make(map[TenantID]*tenantState, len(cfg.Tenants)),
		spill:      spill,
		multiNode:  numNodes > 1,
		dramCap:    int64(cfg.DRAMPages),
		nvmCap:     int64(cfg.NVMPages),
		serveCells: make([]serveCell, stripes),
		stripeMask: uint64(stripes - 1),
		inflight:   make(map[uint64]struct{}),
		drained:    make(chan struct{}),
		ring:       cfg.Events,
	}
	for n, nc := range cfg.Topology.Nodes {
		ns := &nodeState{
			id:      n,
			dramCap: int64(nc.DRAMPages),
			nvmCap:  int64(nc.NVMPages),
		}
		if e.multiNode {
			ns.accesses = make([]padCounter, stripes)
		}
		e.nodes = append(e.nodes, ns)
	}
	for _, tc := range cfg.Tenants {
		name := tc.Name
		if name == "" {
			name = fmt.Sprintf("tenant-%d", tc.ID)
		}
		ts := &tenantState{
			id:       tc.ID,
			name:     name,
			quota:    int64(tc.DRAMQuota),
			cap:      int64(tc.DRAMQuota) + spill,
			priority: tc.Priority,
			nodeUsed: make([]atomic.Int64, numNodes),
			cells:    make([]tenantCell, stripes),
		}
		ts.pol, err = newOnlinePolicy(cfg.Policy, cfg.Core, cfg.Adaptive)
		if err != nil {
			return nil, err
		}
		e.tenants[tc.ID] = ts
		e.tenantList = append(e.tenantList, ts)
	}
	sort.Slice(e.tenantList, func(i, j int) bool { return e.tenantList[i].id < e.tenantList[j].id })
	// Apportion the quotas jointly, in ID order, so no node backs more
	// guaranteed shares than its pool holds.
	quotas := make([]int64, len(e.tenantList))
	for i, ts := range e.tenantList {
		ts.idx = i
		quotas[i] = ts.quota
	}
	for i, shares := range apportionQuotas(quotas, cfg.Topology.Nodes, e.dramCap) {
		e.tenantList[i].nodeQuota = shares
	}
	for _, ns := range e.nodes {
		ns.scanBufs = make([][]candidate, len(e.tenantList))
	}
	e.def = e.tenants[DefaultTenant]
	return e, nil
}

// Config returns the engine's effective (default-filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// PolicyName returns the name of the policy the engine runs.
func (e *Engine) PolicyName() string { return e.tenantList[0].pol.Name() }

// SpillPool returns the size of the shared DRAM spill pool: the frames
// covered by no tenant quota, which any tenant may borrow.
func (e *Engine) SpillPool() int64 { return e.spill }

// TenantIDs returns the configured tenants in ascending ID order.
func (e *Engine) TenantIDs() []TenantID {
	ids := make([]TenantID, len(e.tenantList))
	for i, ts := range e.tenantList {
		ids[i] = ts.id
	}
	return ids
}

// TenantByName resolves a tenant by its configured Name (a nil-Tenants
// engine names its implicit tenant "default"; explicitly configured
// tenants without a Name fall back to "tenant-<ID>"). It
// is the network front end's AUTH hook: a connection's token resolves to
// the tenant namespace it will be served under. Names are matched
// exactly; the tenant set is immutable after New, so this is safe to call
// concurrently with Serve.
func (e *Engine) TenantByName(name string) (TenantID, bool) {
	for _, ts := range e.tenantList {
		if ts.name == name {
			return ts.id, true
		}
	}
	return 0, false
}

// Drop removes a resident page from memory entirely, releasing its frame
// back to the node pool it came from (and, for a DRAM frame above the
// tenant's node share, handing its spill token back). It returns whether
// the page was resident. This is the network front end's DEL: unlike
// eviction, which picks its own victim, Drop targets one page. Dropping
// races cleanly with concurrent serves and migrations — if the page moves
// between the observation and the removal, Drop retries against its new
// location. Counted as an eviction in Stats.
func (e *Engine) Drop(tenant TenantID, addr uint64) (bool, error) {
	ts := e.admit(tenant)
	if ts == nil {
		return false, e.admitErr(tenant)
	}
	page := e.pageOf(addr)
	if page > maxTablePage {
		return false, ErrPageRange
	}
	for attempt := 0; attempt < maxFaultRetries; attempt++ {
		loc, ok := e.tbl.Peek(tenant, page)
		if !ok {
			return false, nil
		}
		if node, removed := e.tbl.RemoveIfNode(tenant, page, loc); removed {
			if loc == mm.LocDRAM {
				e.releaseDRAM(ts, node)
			} else {
				e.releaseNVM(node)
			}
			e.c.evictions.Add(1)
			ts.c.evictions.Add(1)
			e.publishEvent(tenant, page, node, tierOf(loc), obs.TierNone, obs.ReasonDrop, 0)
			return true, nil
		}
	}
	return false, errors.New("tiered: drop retries exhausted")
}

// TenantStats returns a snapshot of one tenant's counters, or false for an
// unknown tenant. Safe to call concurrently with Serve, under the same
// lazy-sum consistency model as Stats: each field is summed from its
// striped cells (or read from its own atomic) one at a time while serves
// proceed, so every field is individually exact and monotone
// non-decreasing across snapshots, but different fields may be mutually
// torn — Accesses can already include an access whose hit has not been
// tallied into HitsDRAM/HitsNVM yet. Cross-field identities hold exactly
// only on a quiesced engine.
func (e *Engine) TenantStats(id TenantID) (TenantStats, bool) {
	ts, ok := e.tenants[id]
	if !ok {
		return TenantStats{}, false
	}
	accesses, hitsDRAM, hitsNVM := ts.serveTotals()
	st := TenantStats{
		ID:               ts.id,
		Name:             ts.name,
		Accesses:         accesses,
		HitsDRAM:         hitsDRAM,
		HitsNVM:          hitsNVM,
		Faults:           ts.c.faults.Load(),
		Promotions:       ts.c.promotions.Load(),
		Demotions:        ts.c.demotions.Load(),
		Evictions:        ts.c.evictions.Load(),
		ResidentDRAM:     ts.dramUsed.Load(),
		DRAMQuota:        ts.quota,
		DRAMCap:          ts.cap,
		Priority:         ts.priority,
		NodeQuota:        append([]int64(nil), ts.nodeQuota...),
		NodeResidentDRAM: make([]int64, len(ts.nodeUsed)),
	}
	for n := range ts.nodeUsed {
		st.NodeResidentDRAM[n] = ts.nodeUsed[n].Load()
	}
	return st, true
}

// Stats returns a snapshot of the engine's counters, aggregating the
// striped per-access cells lazily — the hit path never touches a shared
// line for them. Safe to call concurrently with Serve.
//
// Consistency model: the snapshot is a lazy sum, not an atomic cut.
// Each field is read (and its stripes summed) one load at a time while
// serves proceed, so every event-count field is individually exact and
// monotone non-decreasing from one snapshot to the next, but fields may
// be mutually torn mid-sum: identities that relate fields (for example
// Accesses == Hits() + Faults, or Demotions == DemotionsFault +
// DemotionsPromo) can be off by in-flight accesses in a snapshot taken
// under load. They hold exactly once the engine is quiesced. The
// occupancy fields are levels, exact at the instant each is read.
func (e *Engine) Stats() Stats {
	st := Stats{
		Faults:         e.c.faults.Load(),
		FaultsToDRAM:   e.c.faultsToDRAM.Load(),
		FaultsToNVM:    e.c.faultsToNVM.Load(),
		Promotions:     e.c.promotions.Load(),
		Demotions:      e.c.demotions.Load(),
		DemotionsFault: e.c.demotionsFault.Load(),
		DemotionsPromo: e.c.demotionsPromo.Load(),
		DemotionsClean: e.c.demotionsClean.Load(),
		Evictions:      e.c.evictions.Load(),
		Scans:          e.c.scans.Load(),
		Batches:        e.c.batches.Load(),
		QueueDrops:     e.c.queueDrops.Load(),
	}
	for _, ns := range e.nodes {
		st.ResidentDRAM += ns.dramUsed.Load()
		st.ResidentNVM += ns.nvmUsed.Load()
		st.RemoteFaults += ns.faultsRemote.Load()
		st.RemotePromotions += ns.promosRemote.Load()
		st.RemoteDemotions += ns.demosRemote.Load()
	}
	for i := range e.serveCells {
		c := &e.serveCells[i]
		st.Accesses += c.accesses.Load()
		st.ReadsDRAM += c.readsDRAM.Load()
		st.WritesDRAM += c.writesDRAM.Load()
		st.ReadsNVM += c.readsNVM.Load()
		st.WritesNVM += c.writesNVM.Load()
	}
	return st
}

// Serve services one line-sized access for the default tenant. Hot path:
// one lock-free table probe plus striped atomic counter updates — no mutex
// word is written; faults and migrations take per-shard writer locks.
func (e *Engine) Serve(addr uint64, op trace.Op) (ServeResult, error) {
	return e.ServeTenant(DefaultTenant, addr, op)
}

// pageOf maps an address to its page number: a shift on the power-of-two
// geometries every deployment uses, a divide on the rest.
func (e *Engine) pageOf(addr uint64) uint64 {
	if e.pageShift >= 0 {
		return addr >> uint(e.pageShift)
	}
	return addr / e.pageSize
}

// admit is the prologue every entry point shares: the lifecycle gate and
// the tenant lookup. It returns nil when the access cannot be admitted;
// admitErr then says why. Split in two so the hit path's half inlines.
func (e *Engine) admit(tenant TenantID) *tenantState {
	if e.state.Load() != stateStarted {
		return nil
	}
	if tenant == DefaultTenant {
		return e.def
	}
	return e.tenants[tenant]
}

// admitErr is the error of an access admit turned away.
func (e *Engine) admitErr(tenant TenantID) error {
	switch e.state.Load() {
	case stateStarted:
		if e.tenants[tenant] == nil {
			return fmt.Errorf("%w: %d", ErrUnknownTenant, tenant)
		}
		// A known tenant was turned away, so admit ran before a
		// concurrent Start finished.
		return ErrNotStarted
	case stateNew:
		return ErrNotStarted
	default:
		return ErrStopped
	}
}

// locate derives where a tenant's page lives: its table key, the key's
// hash (computed exactly once per access — the probe and the home-node
// lookup share the mix), its counter stripe and its home node. The key
// doubles as the stripe selector: accesses to different pages tally on
// different cache lines, so the hot path's only shared writes are the
// page's own entry and its stripe. Only multi-node engines look the home
// node up: the single-node hot path is exactly the flat engine's.
func (e *Engine) locate(ts *tenantState, page uint64) (key, h, cell uint64, home int) {
	key = tableKey(ts.id, page)
	h = mix(key)
	if e.multiNode {
		home = e.tbl.HomeNodeHash(h)
	}
	return key, h, key & e.stripeMask, home
}

// tallyAccess counts one access in its stripe of the global, tenant and —
// on a multi-node engine — home-node cells.
func (e *Engine) tallyAccess(ts *tenantState, cell uint64, home int) {
	e.serveCells[cell].accesses.Add(1)
	ts.cells[cell].accesses.Add(1)
	if e.multiNode {
		e.nodes[home].accesses[cell].Add(1)
	}
}

// miss serves an access whose probe found nothing: the access is tallied
// at once (a batch defers only its hits) and the page takes the fault path.
func (e *Engine) miss(ts *tenantState, cell, key, h, page uint64, home int, op trace.Op) (ServeResult, error) {
	e.tallyAccess(ts, cell, home)
	return e.serveFault(ts, cell, key, h, page, home, op)
}

// ServeTenant services one line-sized access within a tenant's namespace.
func (e *Engine) ServeTenant(tenant TenantID, addr uint64, op trace.Op) (ServeResult, error) {
	ts := e.admit(tenant)
	if ts == nil {
		return ServeResult{}, e.admitErr(tenant)
	}
	page := e.pageOf(addr)
	if page > maxTablePage {
		return ServeResult{}, ErrPageRange
	}
	key, h, cell, home := e.locate(ts, page)
	if loc, ok := e.tbl.TouchHash(key, h, op); ok {
		e.tallyAccess(ts, cell, home)
		e.tallyHit(ts, cell, loc, op)
		return ServeResult{ServedFrom: loc}, nil
	}
	return e.miss(ts, cell, key, h, page, home, op)
}

// tierOf maps a memory location to its obs tier.
func tierOf(loc mm.Location) obs.Tier {
	switch loc {
	case mm.LocDRAM:
		return obs.TierDRAM
	case mm.LocNVM:
		return obs.TierNVM
	}
	return obs.TierNone
}

// publishEvent records one migration decision in the attached event ring
// (no-op without one). score carries the policy's windowed counter for
// promotions; zero for the reactive moves. Lock-free, allocation-free.
func (e *Engine) publishEvent(tenant TenantID, page uint64, node int, from, to obs.Tier, reason obs.Reason, score uint64) {
	if e.ring == nil {
		return
	}
	e.ring.Publish(obs.Event{
		TS:     time.Now().UnixNano(),
		Epoch:  e.c.scans.Load(),
		Page:   page,
		Score:  score,
		Tenant: uint16(tenant),
		Node:   uint8(node),
		From:   from,
		To:     to,
		Reason: reason,
	})
}

// tallyHit records a non-faulting access, mirroring sim.Run's accounting,
// in the given stripe of both the global and the tenant's cells.
func (e *Engine) tallyHit(ts *tenantState, cell uint64, loc mm.Location, op trace.Op) {
	c := &e.serveCells[cell]
	switch {
	case loc == mm.LocDRAM && op == trace.OpRead:
		c.readsDRAM.Add(1)
	case loc == mm.LocDRAM:
		c.writesDRAM.Add(1)
	case op == trace.OpRead:
		c.readsNVM.Add(1)
	default:
		c.writesNVM.Add(1)
	}
	tc := &ts.cells[cell]
	if loc == mm.LocDRAM {
		tc.hitsDRAM.Add(1)
	} else {
		tc.hitsNVM.Add(1)
	}
}

// tallyFault records a fault of a page homed on node home, served into
// zone by a frame from node's pool.
func (e *Engine) tallyFault(ts *tenantState, zone mm.Location, home, node int) {
	e.c.faults.Add(1)
	ts.c.faults.Add(1)
	if zone == mm.LocDRAM {
		e.c.faultsToDRAM.Add(1)
	} else {
		e.c.faultsToNVM.Add(1)
	}
	ns := e.nodes[home]
	if node == home {
		ns.faultsLocal.Add(1)
	} else {
		ns.faultsRemote.Add(1)
	}
}

// takeFrame claims one free frame from a CAS-exact pool level bounded by
// cap, or reports that the pool is full — the per-node capacity gate for
// both zones.
func takeFrame(pool *atomic.Int64, cap int64) bool {
	for {
		u := pool.Load()
		if u >= cap {
			return false
		}
		if pool.CompareAndSwap(u, u+1) {
			return true
		}
	}
}

// takeNodeDRAM claims one free frame from a node's DRAM pool.
func (e *Engine) takeNodeDRAM(n int) bool {
	ns := e.nodes[n]
	return takeFrame(&ns.dramUsed, ns.dramCap)
}

// reserveDRAM claims one DRAM frame for a tenant, preferring the page's
// home node and falling back to remote nodes only when the home pool
// cannot hold it. On each node, the first nodeQuota frames come from the
// tenant's apportioned budget; every frame above the node share must take
// a token from the shared spill pool (borrowable cross-node), so the
// tenants' collective borrowing never exceeds the pool, no node's pool
// overflows, and the sum of residencies never exceeds DRAM — which is
// what makes a quota a guarantee: a tenant within its apportioned share
// reserves without demoting anyone. Capacity is enforced by the occupancy
// counters, not a free list: a successful reserve is a promise that an
// Insert/MoveIf will follow (or the reservation is released). The
// tenant's resMu makes the share-vs-borrow classification of each frame
// exact. Returns the node the frame came from.
func (e *Engine) reserveDRAM(ts *tenantState, home int) (int, dramReserve) {
	ts.resMu.Lock()
	u := ts.dramUsed.Load()
	if u >= ts.cap {
		ts.resMu.Unlock()
		return 0, dramTenantFull
	}
	starved := false
	for i := 0; i < len(e.nodes); i++ {
		n := home + i
		if n >= len(e.nodes) {
			n -= len(e.nodes)
		}
		nu := ts.nodeUsed[n].Load()
		token := nu+1 > ts.nodeQuota[n]
		if token && !e.takeSpill() {
			// Physical room may exist here, but the tenant cannot pay
			// for it: a borrower holds the token it needs.
			starved = true
			continue
		}
		if !e.takeNodeDRAM(n) {
			if token {
				e.returnSpill()
			}
			continue
		}
		ts.nodeUsed[n].Store(nu + 1)
		ts.dramUsed.Store(u + 1)
		ts.resMu.Unlock()
		return n, dramReserved
	}
	ts.resMu.Unlock()
	if starved {
		return 0, dramSpillFull
	}
	return 0, dramNodeFull
}

// releaseDRAM returns a tenant's reserved DRAM frame to the given node's
// pool, handing back a spill token when the freed frame was above the
// tenant's share on that node.
func (e *Engine) releaseDRAM(ts *tenantState, node int) {
	ts.resMu.Lock()
	nu := ts.nodeUsed[node].Load()
	if nu > ts.nodeQuota[node] {
		e.returnSpill()
	}
	ts.nodeUsed[node].Store(nu - 1)
	ts.dramUsed.Store(ts.dramUsed.Load() - 1)
	ts.resMu.Unlock()
	e.nodes[node].dramUsed.Add(-1)
}

// takeSpill borrows one frame from the shared spill pool, or reports that
// the pool is fully borrowed.
func (e *Engine) takeSpill() bool {
	return takeFrame(&e.spillUsed, e.spill)
}

// returnSpill hands a borrowed frame back to the pool.
func (e *Engine) returnSpill() {
	e.spillUsed.Add(-1)
}

// reserveNVM claims one free NVM frame, preferring the given node's pool
// and spilling to remote pools when it is full; it reports which pool the
// frame came from, or that every pool is full. NVM is shared across
// tenants: only DRAM, the contended resource, is quota'd.
func (e *Engine) reserveNVM(prefer int) (int, bool) {
	for i := 0; i < len(e.nodes); i++ {
		n := prefer + i
		if n >= len(e.nodes) {
			n -= len(e.nodes)
		}
		ns := e.nodes[n]
		if takeFrame(&ns.nvmUsed, ns.nvmCap) {
			return n, true
		}
	}
	return 0, false
}

// releaseNVM returns a reserved NVM frame to the given node's pool.
func (e *Engine) releaseNVM(node int) {
	e.nodes[node].nvmUsed.Add(-1)
}

// serveFault loads a non-resident page into the zone the tenant's policy
// chooses — onto the page's home node when its pool has room, remotely
// otherwise — demoting and evicting colder pages as capacity requires.
// key's hash h and home node are passed down from locate, which already
// computed them.
func (e *Engine) serveFault(ts *tenantState, cell, key, h, page uint64, home int, op trace.Op) (ServeResult, error) {
	zone := ts.pol.FaultZone(op)
	for attempt := 0; attempt < maxFaultRetries; attempt++ {
		var node int
		if zone == mm.LocNVM {
			n, ok := e.reserveNVM(home)
			if !ok {
				if err := e.evictOne(); err != nil {
					return ServeResult{}, err
				}
				continue
			}
			node = n
		} else {
			n, r := e.reserveDRAM(ts, home)
			if r != dramReserved {
				if err := e.demoteForReserve(ts, obs.ReasonDemotionFault); err != nil {
					return ServeResult{}, err
				}
				continue
			}
			node = n
		}
		if e.tbl.InsertNode(ts.id, page, zone, node) {
			e.tallyFault(ts, zone, home, node)
			return ServeResult{ServedFrom: zone, Fault: true}, nil
		}
		// Another goroutine faulted the page in first: this access is a
		// hit on wherever it landed.
		e.releaseZone(ts, zone, node)
		if loc, ok := e.tbl.TouchHash(key, h, op); ok {
			e.tallyHit(ts, cell, loc, op)
			return ServeResult{ServedFrom: loc}, nil
		}
		// Inserted and already evicted again: fault anew.
	}
	return ServeResult{}, fmt.Errorf("tiered: tenant %d page %d fault retries exhausted", ts.id, page)
}

// releaseZone returns a reserved frame in either zone to the given node's
// pool.
func (e *Engine) releaseZone(ts *tenantState, zone mm.Location, node int) {
	if zone == mm.LocDRAM {
		e.releaseDRAM(ts, node)
	} else {
		e.releaseNVM(node)
	}
}

// demoteForReserve makes room after a failed DRAM reservation. A tenant
// holding DRAM demotes its own coldest page — quota enforcement never
// victimizes a within-share neighbor — preferring a node where it is over
// its apportioned share, so the demotion also frees the spill token the
// retry may need. A tenant with no DRAM pages at all (a quota-less tenant
// racing for spill) instead demotes within some token-holding tenant, on
// the node it borrows on: those are the only victims whose demotion
// releases a token, and an exhausted pool implies one exists. Finding
// none means the borrowers drained concurrently; the caller just retries
// its reserve.
//
// reason labels why DRAM room is needed (obs.ReasonDemotionFault or
// obs.ReasonDemotionPromotion); the borrower-victim branch publishes its
// demotion as obs.ReasonDemotionSpill since the point of that demotion
// is reclaiming a spill token, not the triggering access itself.
func (e *Engine) demoteForReserve(ts *tenantState, reason obs.Reason) error {
	forPromotion := reason == obs.ReasonDemotionPromotion
	if n := ts.overageNode(); n >= 0 {
		return e.demoteOne(ts, true, forPromotion, n, reason)
	}
	if ts.dramUsed.Load() > 0 {
		return e.demoteOne(ts, true, forPromotion, -1, reason)
	}
	for _, vs := range e.tenantList {
		if n := vs.overageNode(); n >= 0 {
			return e.demoteOne(vs, true, forPromotion, n, obs.ReasonDemotionSpill)
		}
	}
	return nil
}

// demoteOne frees one DRAM frame by demoting a cold page into NVM (which
// may cascade into an NVM eviction), preferring an NVM frame on the node
// the victim leaves so demotions stay node-local when they can. With
// tenantOnly, the victim must belong to ts — quota enforcement demotes
// within the over-budget tenant. With frameNode >= 0, the victim's DRAM
// frame must sit in that node's pool — the share-enforcement case, where
// freeing that specific pool (and its spill token) is the point.
// forPromotion only labels the demotion's reason in the stats; reason is
// the same classification for the event ring (which also distinguishes
// spill-reclaim demotions).
func (e *Engine) demoteOne(ts *tenantState, tenantOnly, forPromotion bool, frameNode int, reason obs.Reason) error {
	for attempt := 0; attempt < maxFaultRetries; attempt++ {
		// Pick the victim first: its observed frame node is where the
		// demoted page should land if that NVM pool has room. The NVM
		// frame is still reserved before the move, so the victim always
		// has somewhere to land.
		victimTenant, victim, victimNode, ok := e.tbl.ClockVictimNode(mm.LocDRAM, frameNode, ts.id, tenantOnly)
		if !ok {
			// The zone (or the requested slice of it) drained concurrently;
			// the caller's reserve will now succeed.
			return nil
		}
		nvmNode, ok := e.reserveNVM(victimNode)
		if !ok {
			// NVM full: evict and re-reserve immediately, so the victim
			// sweep above is not repeated on the common full-NVM path.
			if err := e.evictOne(); err != nil {
				return err
			}
			if nvmNode, ok = e.reserveNVM(victimNode); !ok {
				continue // the freed frame was snatched; start over
			}
		}
		vs := e.tenants[victimTenant]
		if fromNode, moved := e.tbl.MoveIfNode(victimTenant, victim, mm.LocDRAM, mm.LocNVM, nvmNode); moved {
			e.releaseDRAM(vs, fromNode)
			e.c.demotions.Add(1)
			vs.c.demotions.Add(1)
			if forPromotion {
				e.c.demotionsPromo.Add(1)
			} else {
				e.c.demotionsFault.Add(1)
			}
			from := e.nodes[fromNode]
			if nvmNode == fromNode {
				from.demosLocal.Add(1)
			} else {
				from.demosRemote.Add(1)
			}
			e.publishEvent(victimTenant, victim, fromNode, obs.TierDRAM, obs.TierNVM, reason, 0)
			return nil
		}
		// The victim moved or vanished under us; retry with a fresh one.
		e.releaseNVM(nvmNode)
	}
	return errors.New("tiered: demotion retries exhausted")
}

// evictOne removes one cold NVM page from memory (the online engine's
// page-out: data pages carry no content here, so eviction is pure
// bookkeeping and the next access to the page faults).
func (e *Engine) evictOne() error {
	for attempt := 0; attempt < maxFaultRetries; attempt++ {
		victimTenant, victim, ok := e.tbl.ClockVictim(mm.LocNVM, 0, false)
		if !ok {
			return nil // zone drained concurrently
		}
		if node, removed := e.tbl.RemoveIfNode(victimTenant, victim, mm.LocNVM); removed {
			e.releaseNVM(node)
			e.c.evictions.Add(1)
			e.tenants[victimTenant].c.evictions.Add(1)
			e.publishEvent(victimTenant, victim, node, obs.TierNVM, obs.TierNone, obs.ReasonEviction, 0)
			return nil
		}
	}
	return errors.New("tiered: eviction retries exhausted")
}

// applyPromotion moves one scan-identified hot page to DRAM, verifying the
// scan's observation still holds at apply time. The key carries the
// tenant, and the DRAM frame is charged to that tenant's quota. The frame
// comes from the page's home node whenever that pool can hold it; a
// remote frame is taken only when the home node is exhausted, and the
// promotion is counted as remote on the home node's stats. score is the
// windowed counter magnitude the scan saw, carried into the event ring
// so a trace records how hot the page was at decision time.
func (e *Engine) applyPromotion(key, score uint64) {
	tenant, page := splitKey(key)
	ts := e.tenants[tenant]
	if ts == nil {
		return
	}
	if loc, ok := e.tbl.Peek(tenant, page); !ok || loc != mm.LocNVM {
		return // stale hint: the page moved or was evicted since the scan
	}
	home := e.tbl.HomeNodeKey(key)
	for attempt := 0; attempt < maxFaultRetries; attempt++ {
		node, r := e.reserveDRAM(ts, home)
		if r != dramReserved {
			if e.demoteForReserve(ts, obs.ReasonDemotionPromotion) != nil {
				return
			}
			continue
		}
		if fromNode, moved := e.tbl.MoveIfNode(tenant, page, mm.LocNVM, mm.LocDRAM, node); moved {
			e.releaseNVM(fromNode)
			e.c.promotions.Add(1)
			ts.c.promotions.Add(1)
			hn := e.nodes[home]
			if node == home {
				hn.promosLocal.Add(1)
			} else {
				hn.promosRemote.Add(1)
			}
			e.publishEvent(tenant, page, node, obs.TierNVM, obs.TierDRAM, obs.ReasonPromotion, score)
		} else {
			e.releaseDRAM(ts, node)
		}
		return
	}
}

// CheckInvariants validates the table against the per-node occupancy
// pools, capacities, per-tenant quota caps and the spill-token ledger.
// Call it quiesced (no concurrent Serve).
func (e *Engine) CheckInvariants() error {
	// One table pass suffices for everything the table must witness: the
	// zone totals, each node's per-zone residency, and every tenant's
	// per-node DRAM residency.
	var dram int
	nodeDram := make([]int64, len(e.nodes))
	nodeNvm := make([]int64, len(e.nodes))
	perTenant := make(map[TenantID][]int64, len(e.tenantList))
	for i := 0; i < e.tbl.NumShards(); i++ {
		e.tbl.ScanShard(i, false, func(tenant TenantID, _ uint64, loc mm.Location, node int, _, _ uint64) {
			if loc == mm.LocDRAM {
				dram++
				nodeDram[node]++
				counts := perTenant[tenant]
				if counts == nil {
					counts = make([]int64, len(e.nodes))
					perTenant[tenant] = counts
				}
				counts[node]++
			} else {
				nodeNvm[node]++
			}
		})
	}
	// Per-node pools: each node's pool level must match the table's count
	// of frames in that pool and stay within the node's capacity, and the
	// pools must tile the configured zone totals exactly.
	var capDramSum, capNvmSum int64
	for n, ns := range e.nodes {
		nd, nn := nodeDram[n], nodeNvm[n]
		if nd != ns.dramUsed.Load() || nn != ns.nvmUsed.Load() {
			return fmt.Errorf("tiered: node %d holds %d/%d frames in the table but its pools say %d/%d",
				n, nd, nn, ns.dramUsed.Load(), ns.nvmUsed.Load())
		}
		if nd > ns.dramCap || nn > ns.nvmCap {
			return fmt.Errorf("tiered: node %d occupancy %d/%d exceeds its pools %d/%d",
				n, nd, nn, ns.dramCap, ns.nvmCap)
		}
		capDramSum += ns.dramCap
		capNvmSum += ns.nvmCap
	}
	if capDramSum != e.dramCap || capNvmSum != e.nvmCap {
		return fmt.Errorf("tiered: node pools total %d/%d frames, configured totals are %d/%d",
			capDramSum, capNvmSum, e.dramCap, e.nvmCap)
	}
	// The apportioned quota shares are what makes a quota a guarantee, so
	// they must be physically honorable: no node may back more guaranteed
	// shares than its pool holds.
	for n, ns := range e.nodes {
		var shares int64
		for _, ts := range e.tenantList {
			shares += ts.nodeQuota[n]
		}
		if shares > ns.dramCap {
			return fmt.Errorf("tiered: node %d backs %d guaranteed quota shares, its DRAM pool holds %d",
				n, shares, ns.dramCap)
		}
	}
	var tenantSum, borrowed int64
	for _, ts := range e.tenantList {
		used := ts.dramUsed.Load()
		tenantSum += used
		var nodeSum int64
		for n := range ts.nodeUsed {
			nu := ts.nodeUsed[n].Load()
			nodeSum += nu
			var got int64
			if counts := perTenant[ts.id]; counts != nil {
				got = counts[n]
			}
			if got != nu {
				return fmt.Errorf("tiered: tenant %d holds %d DRAM pages on node %d but occupancy says %d",
					ts.id, got, n, nu)
			}
			if over := nu - ts.nodeQuota[n]; over > 0 {
				borrowed += over
			}
		}
		if nodeSum != used {
			return fmt.Errorf("tiered: tenant %d per-node DRAM residencies total %d, tenant total is %d",
				ts.id, nodeSum, used)
		}
		if used > ts.cap {
			return fmt.Errorf("tiered: tenant %d DRAM residency %d exceeds quota %d + spill %d",
				ts.id, used, ts.quota, e.spill)
		}
	}
	if tenantSum != int64(dram) {
		return fmt.Errorf("tiered: tenant DRAM residencies total %d, table holds %d", tenantSum, dram)
	}
	if got := e.spillUsed.Load(); got != borrowed || got > e.spill {
		return fmt.Errorf("tiered: spill pool accounting says %d borrowed, tenants hold %d over their shares (pool %d)",
			got, borrowed, e.spill)
	}
	return nil
}
