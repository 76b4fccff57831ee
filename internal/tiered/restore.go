package tiered

import (
	"errors"
	"time"

	"hybridmem/internal/mm"
	"hybridmem/internal/obs"
)

// ErrRestoreStarted is returned by Restore after Start: residency can
// only be rebuilt into a quiesced table.
var ErrRestoreStarted = errors.New("tiered: Restore must run before Start")

// RestoredPage is one checkpointed page handed back to the engine at
// restart. Pages restore into NVM — the durable tier — regardless of the
// tier they occupied at checkpoint time; Warm marks the ones that were
// DRAM-resident (or otherwise hot), which the warm-up feeder replays as a
// rate-limited promotion storm once the daemon starts.
type RestoredPage struct {
	Tenant TenantID
	Page   uint64
	// Node is the preferred frame pool (the node that held the page at
	// checkpoint time); out-of-range values fall back to the page's home
	// node under the current topology.
	Node int
	Warm bool
	// Score orders the warm-up storm (hottest first). Reads/Writes seed
	// the page's windowed counters so the first scan epochs after restart
	// see pre-crash heat.
	Score         uint64
	Reads, Writes uint64
}

// RestoreStats reports what Restore did with the checkpoint's records.
type RestoreStats struct {
	// Restored pages were inserted as NVM residents.
	Restored int
	// Duplicates were already resident (two records for one page — only
	// possible with a corrupt or concatenated checkpoint).
	Duplicates int
	// Skipped records named a tenant the current config does not have, or
	// a page outside the keyspace.
	Skipped int
	// CapacityDrops were lost because every NVM pool was full — the
	// current geometry is smaller than the checkpoint's.
	CapacityDrops int
	// WarmQueued pages await the warm-up promotion storm.
	WarmQueued int
	// WarmDirect pages went straight into DRAM at restore — the age-tiered
	// warm-up path (Config.WarmupDRAMTopK), which skips the storm for the
	// hottest checkpoint-warm pages.
	WarmDirect int
}

// Restore rebuilds residency from checkpoint records. It must run between
// New and Start: every record is inserted as an NVM resident (frame
// accounting goes through the same per-node pools the
// fault path uses, so CheckInvariants holds afterwards), counters are
// seeded with the checkpointed window, and Warm records queue for the
// warm-up promotion storm that Start launches. With Config.WarmupDRAMTopK
// set, the K hottest Warm records instead restore directly into DRAM —
// the age-tiered warm-up: each goes through the same CAS-exact quota and
// node-pool reservation a fault-time load uses, and one that finds no
// frame falls back to the NVM + storm path. Records that no longer fit —
// unknown tenant, out-of-range page, NVM full — are counted and skipped,
// never fatal: a checkpoint from a larger or differently-configured
// deployment restores as much as the current geometry allows.
func (e *Engine) Restore(pages []RestoredPage) (RestoreStats, error) {
	var st RestoreStats
	if e.state.Load() != stateNew {
		return st, ErrRestoreStarted
	}
	topK := e.topWarmSet(pages)
	for _, rp := range pages {
		ts := e.tenants[rp.Tenant]
		if ts == nil || rp.Page > maxTablePage {
			st.Skipped++
			continue
		}
		prefer := rp.Node
		if prefer < 0 || prefer >= len(e.nodes) {
			prefer = e.tbl.HomeNode(rp.Tenant, rp.Page)
		}
		if _, hot := topK[tableKey(rp.Tenant, rp.Page)]; hot {
			if node, r := e.reserveDRAM(ts, prefer); r == dramReserved {
				if !e.tbl.InsertNode(rp.Tenant, rp.Page, mm.LocDRAM, node) {
					e.releaseDRAM(ts, node)
					st.Duplicates++
					continue
				}
				if rp.Reads|rp.Writes != 0 {
					e.tbl.SeedCounters(rp.Tenant, rp.Page, rp.Reads, rp.Writes)
				}
				st.Restored++
				st.WarmDirect++
				e.publishEvent(rp.Tenant, rp.Page, node, obs.TierNone, obs.TierDRAM, obs.ReasonRestore, rp.Score)
				continue
			}
			// Quota, node pools and spill all exhausted for this tenant:
			// fall through to the NVM + storm path.
		}
		node, ok := e.reserveNVM(prefer)
		if !ok {
			st.CapacityDrops++
			continue
		}
		if !e.tbl.InsertNode(rp.Tenant, rp.Page, mm.LocNVM, node) {
			e.releaseNVM(node)
			st.Duplicates++
			continue
		}
		if rp.Reads|rp.Writes != 0 {
			e.tbl.SeedCounters(rp.Tenant, rp.Page, rp.Reads, rp.Writes)
		}
		st.Restored++
		e.publishEvent(rp.Tenant, rp.Page, node, obs.TierNone, obs.TierNVM, obs.ReasonRestore, rp.Score)
		if rp.Warm {
			e.warmup = append(e.warmup, candidate{key: tableKey(rp.Tenant, rp.Page), score: rp.Score})
			st.WarmQueued++
		}
	}
	orderCandidates(e.warmup)
	e.restored.Add(int64(st.Restored))
	e.restoreSkips.Add(int64(st.Duplicates + st.Skipped + st.CapacityDrops))
	e.warmDirect.Add(int64(st.WarmDirect))
	e.warmPending.Store(int64(len(e.warmup)))
	return st, nil
}

// topWarmSet picks the table keys of the WarmupDRAMTopK hottest
// checkpoint-warm records that the current config could restore at all —
// the set Restore places directly into DRAM. Nil when the feature is off.
func (e *Engine) topWarmSet(pages []RestoredPage) map[uint64]struct{} {
	k := e.cfg.WarmupDRAMTopK
	if k <= 0 {
		return nil
	}
	cands := make([]candidate, 0, len(pages))
	for _, rp := range pages {
		if !rp.Warm || e.tenants[rp.Tenant] == nil || rp.Page > maxTablePage {
			continue
		}
		cands = append(cands, candidate{key: tableKey(rp.Tenant, rp.Page), score: rp.Score})
	}
	orderCandidates(cands)
	if k > len(cands) {
		k = len(cands)
	}
	set := make(map[uint64]struct{}, k)
	for _, c := range cands[:k] {
		set[c.key] = struct{}{}
	}
	return set
}

// WarmupPending returns how many restored-hot pages still await the
// warm-up feeder. Zero once the post-restart promotion storm has been
// fully handed to the daemon queues.
func (e *Engine) WarmupPending() int64 { return e.warmPending.Load() }

// warmupLoop replays the checkpointed hot set through the per-node daemon
// queues: each ScanInterval tick it cuts up to WarmupRate pages per node
// into promotion batches and enqueues them for that node's workers, which
// apply them through the same applyPromotion path scan-found candidates
// take (location re-verified, quota-checked, event-published). The sends
// block when a queue is full — warm-up yields to live scan traffic rather
// than dropping — and every blocking point also watches stopCh, so
// Engine.Stop mid-storm abandons the remainder cleanly. Runs on its own
// goroutine, launched by Start when Restore queued warm pages.
func (e *Engine) warmupLoop() {
	defer e.warmWG.Done()
	perNode := make([][]candidate, len(e.nodes))
	for _, c := range e.warmup {
		n := e.tbl.HomeNodeKey(c.key)
		perNode[n] = append(perNode[n], c)
	}
	ticker := time.NewTicker(e.cfg.ScanInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-ticker.C:
		}
		remaining := false
		for n, ns := range e.nodes {
			budget := e.cfg.WarmupRate
			for budget > 0 && len(perNode[n]) > 0 {
				take := e.cfg.BatchSize
				if take > budget {
					take = budget
				}
				if take > len(perNode[n]) {
					take = len(perNode[n])
				}
				b := e.newBatch()
				for _, cand := range perNode[n][:take] {
					if !e.markInflight(cand.key) {
						// The scanner beat us to this page (seeded counters
						// can qualify it): one promotion suffices.
						e.c.coalesced.Add(1)
						continue
					}
					b.c = append(b.c, cand)
				}
				perNode[n] = perNode[n][take:]
				budget -= take
				e.warmPending.Add(-int64(take))
				if len(b.c) == 0 {
					e.putBatch(b)
					continue
				}
				b.at = time.Now()
				// A successful send transfers b to the worker, which may
				// reset it immediately — snapshot the count first.
				enq := int64(len(b.c))
				select {
				case ns.batchCh <- b:
					e.c.batches.Add(1)
					e.warmEnqueued.Add(enq)
				case <-e.stopCh:
					for _, cand := range b.c {
						e.unmarkInflight(cand.key)
					}
					e.putBatch(b)
					return
				}
			}
			if len(perNode[n]) > 0 {
				remaining = true
			}
		}
		if !remaining {
			return
		}
	}
}
