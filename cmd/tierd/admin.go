package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"hybridmem/internal/obs"
	"hybridmem/internal/persist"
	"hybridmem/internal/server"
	"hybridmem/internal/tiered"
)

// adminFlags carries the -admin / -pprof-contention options. The admin
// plane works in every engine-hosting mode: -serve gets the full catalog
// (engine + RESP fabric), the in-process load modes get the engine
// catalog, and both get the migration trace ring, pprof and probes.
type adminFlags struct {
	addr     string
	profiles bool
	ringSize int
}

// ring returns the migration trace ring to attach to the engine config,
// or nil when the admin plane is off (keeping the engine's migration
// paths free of even the nil-check's branch target). -trace-ring sizes
// it: a churny run publishes far more demotion/eviction events than the
// default 4096 slots hold, and a caller that wants the rarer promotion
// events to survive to /events must size the ring above the run's total
// migration count.
func (af adminFlags) ring() *obs.EventRing {
	if af.addr == "" {
		return nil
	}
	n := af.ringSize
	if n <= 0 {
		n = obs.DefaultRingSize
	}
	return obs.NewEventRing(n)
}

// startAdmin brings the admin plane up over a started engine and an
// optional RESP server: one registry holding every catalog, readiness
// tied to the engine (and server) lifecycle, invariant checks on demand,
// and the event ring behind /events. Returns nil when -admin is unset.
// ckpt and loading are the optional persistence hooks from -persist:
// the checkpointer's counters join the catalog, and /readyz reports
// not-ready while loading() is true (the restore window).
func startAdmin(o *options, e *tiered.Engine, srv *server.Server,
	ring *obs.EventRing, ckpt *persist.Checkpointer, loading func() bool,
	stderr io.Writer) (*obs.Admin, error) {
	af := o.admin
	if af.addr == "" {
		return nil, nil
	}
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	if srv != nil {
		srv.RegisterMetrics(reg)
	}
	if ckpt != nil {
		ckpt.RegisterMetrics(reg)
	}
	adm, err := obs.NewAdmin(obs.AdminConfig{
		Addr:     af.addr,
		Registry: reg,
		Events:   ring,
		Ready: func() error {
			if loading != nil && loading() {
				return errors.New("restoring checkpoint")
			}
			if !e.Running() {
				return errors.New("engine not running")
			}
			if srv != nil && !srv.Serving() {
				return errors.New("resp server not serving")
			}
			return nil
		},
		Invariants: e.CheckInvariants,
		Profiles:   af.profiles,
		Tool:       "tierd",
		Scale:      o.scale,
		Seed:       o.seed,
	})
	if err != nil {
		return nil, err
	}
	if err := adm.Listen(); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "tierd: admin plane on %s (/metrics /healthz /readyz /events /debug/pprof)\n", adm.URL())
	return adm, nil
}

// stopAdmin shuts the admin plane down; nil-safe so call sites don't
// branch on whether -admin was set.
func stopAdmin(adm *obs.Admin, stderr io.Writer) {
	if adm == nil {
		return
	}
	if err := adm.Shutdown(2 * time.Second); err != nil {
		fmt.Fprintf(stderr, "tierd: admin shutdown: %v\n", err)
	}
}
