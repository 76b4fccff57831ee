package loadgen

import (
	"fmt"
	"strings"
	"time"

	"hybridmem/internal/server"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

// Engine returns a Load.Open that serves a tenant's records in-process:
// ServeTenant for a unit of one, ServeTenantBatch above. The engine must
// be started.
func Engine(e *tiered.Engine, tenant tiered.TenantID) func() (Target, error) {
	return func() (Target, error) { return &engineTarget{e: e, tenant: tenant}, nil }
}

type engineTarget struct {
	e      *tiered.Engine
	tenant tiered.TenantID
	addrs  []uint64
	ops    []trace.Op
	res    []tiered.ServeResult
}

func (t *engineTarget) Issue(recs []trace.Record) error {
	if len(recs) == 1 {
		_, err := t.e.ServeTenant(t.tenant, recs[0].Addr, recs[0].Op)
		return err
	}
	if len(recs) > len(t.addrs) {
		t.addrs = make([]uint64, len(recs))
		t.ops = make([]trace.Op, len(recs))
		t.res = make([]tiered.ServeResult, len(recs))
	}
	for j, r := range recs {
		t.addrs[j], t.ops[j] = r.Addr, r.Op
	}
	k := len(recs)
	_, err := t.e.ServeTenantBatch(t.tenant, t.addrs[:k], t.ops[:k], t.res[:k])
	return err
}

func (t *engineTarget) Close() error { return nil }

// RESP returns a Load.Open that dials a tierd server and issues each unit
// as one pipeline: SET for a write, GET otherwise, one flush, then every
// reply read back. A non-empty auth is sent as the AUTH token (a tenant
// name).
func RESP(addr, auth string) func() (Target, error) {
	return func() (Target, error) {
		c, err := server.DialRetry(addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if auth != "" {
			if err := c.Auth(auth); err != nil {
				c.Close()
				return nil, fmt.Errorf("AUTH: %w", err)
			}
		}
		// Ride out the server's restore window: a just-restarted tierd with
		// -persist accepts connections immediately but answers data commands
		// with -LOADING until the checkpoint is restored.
		for deadline := time.Now().Add(30 * time.Second); ; {
			_, err := c.Do("GET", "0")
			if err == nil {
				return respTarget{c}, nil
			}
			if !strings.Contains(err.Error(), "LOADING") || time.Now().After(deadline) {
				c.Close()
				return nil, err
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
}

type respTarget struct{ c *server.Client }

func (t respTarget) Issue(recs []trace.Record) error {
	for _, r := range recs {
		if r.Op == trace.OpWrite {
			t.c.EnqueueSet(r.Addr)
		} else {
			t.c.EnqueueGet(r.Addr)
		}
	}
	if err := t.c.Flush(); err != nil {
		return err
	}
	for range recs {
		if _, err := t.c.ReadReply(); err != nil {
			return err
		}
	}
	return nil
}

func (t respTarget) Close() error { return t.c.Close() }
