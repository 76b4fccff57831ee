package obs

import (
	"bytes"
	"sync"
	"testing"

	"hybridmem/internal/results"
)

func TestEventRingRoundTrip(t *testing.T) {
	r := NewEventRing(64)
	ev := Event{
		TS: 123456789, Epoch: 7, Page: 0xABCDEF, Score: 42,
		Tenant: 513, Node: 3, From: TierNVM, To: TierDRAM,
		Reason: ReasonPromotion,
	}
	r.Publish(ev)
	got := r.Snapshot(0)
	if len(got) != 1 {
		t.Fatalf("snapshot len = %d, want 1", len(got))
	}
	ev.Seq = 0
	if got[0] != ev {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got[0], ev)
	}
}

// TestEventRingWraparound is the overflow property test: publish far
// more events than capacity from a single goroutine and assert the
// snapshot is exactly the most recent cap events, in order, with
// Overwritten accounting for the rest.
func TestEventRingWraparound(t *testing.T) {
	r := NewEventRing(64)
	capN := uint64(r.Cap())
	const total = 1000
	for i := uint64(0); i < total; i++ {
		r.Publish(Event{Page: i, Epoch: int64(i), Tenant: uint16(i % 7), Reason: ReasonEviction})
	}
	if r.Published() != total {
		t.Fatalf("Published = %d, want %d", r.Published(), total)
	}
	if r.Overwritten() != total-capN {
		t.Fatalf("Overwritten = %d, want %d", r.Overwritten(), total-capN)
	}
	got := r.Snapshot(0)
	if uint64(len(got)) != capN {
		t.Fatalf("snapshot len = %d, want %d", len(got), capN)
	}
	for i, ev := range got {
		wantSeq := total - capN + uint64(i)
		if ev.Seq != wantSeq || ev.Page != wantSeq || ev.Epoch != int64(wantSeq) {
			t.Fatalf("slot %d: got seq=%d page=%d epoch=%d, want %d", i, ev.Seq, ev.Page, ev.Epoch, wantSeq)
		}
	}
	if limited := r.Snapshot(10); len(limited) != 10 || limited[0].Seq != total-10 {
		t.Fatalf("Snapshot(10) = len %d first %d", len(limited), limited[0].Seq)
	}
}

// TestEventRingConcurrentPublish hammers the ring from many goroutines
// while snapshots run, asserting every returned event is well-formed
// (payload words mutually consistent) and Seqs strictly increase —
// i.e. torn slots are dropped, not returned.
func TestEventRingConcurrentPublish(t *testing.T) {
	r := NewEventRing(128)
	const writers, per = 8, 5000
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() { // concurrent reader
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot(0)
			var lastSeq uint64
			for i, ev := range snap {
				if i > 0 && ev.Seq <= lastSeq {
					t.Errorf("snapshot seqs not increasing: %d after %d", ev.Seq, lastSeq)
					return
				}
				lastSeq = ev.Seq
				// Writers encode the same value in Page, Score and
				// Epoch; a torn read would disagree.
				if ev.Page != ev.Score || int64(ev.Page) != ev.Epoch {
					t.Errorf("torn event returned: %+v", ev)
					return
				}
			}
		}
	}()
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(id uint64) {
			defer writerWG.Done()
			for i := uint64(0); i < per; i++ {
				v := id*per + i
				r.Publish(Event{Page: v, Score: v, Epoch: int64(v), Tenant: uint16(id), Reason: ReasonPromotion})
			}
		}(uint64(w))
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if r.Published() != writers*per {
		t.Fatalf("Published = %d, want %d", r.Published(), writers*per)
	}
}

func TestEventRingPublishZeroAlloc(t *testing.T) {
	r := NewEventRing(256)
	ev := Event{TS: 1, Epoch: 2, Page: 3, Score: 4, Tenant: 5, Node: 6, From: TierNVM, To: TierDRAM, Reason: ReasonPromotion}
	if n := testing.AllocsPerRun(1000, func() { r.Publish(ev) }); n != 0 {
		t.Fatalf("Publish allocated %.1f allocs/op, want 0", n)
	}
}

func TestWriteEventsArtifact(t *testing.T) {
	r := NewEventRing(64)
	r.Publish(Event{TS: 10, Epoch: 1, Page: 100, Score: 9, Tenant: 2, Node: 1, From: TierNVM, To: TierDRAM, Reason: ReasonPromotion})
	r.Publish(Event{TS: 20, Epoch: 1, Page: 200, Tenant: 3, From: TierDRAM, To: TierNVM, Reason: ReasonDemotionFault})
	var buf bytes.Buffer
	if err := WriteEventsArtifact(&buf, r.Snapshot(0), "obstest", 0.5, 7); err != nil {
		t.Fatal(err)
	}
	art, err := results.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if art.Kind != "events" || art.Tool != "obstest" || len(art.Results) != 2 {
		t.Fatalf("artifact header/results wrong: %+v", art)
	}
	promo := art.Results[0]
	if promo.Policy != "promotion" || promo.Values["tenant"] != 2 || promo.Values["node"] != 1 ||
		promo.Values["page"] != 100 || promo.Values["score"] != 9 {
		t.Fatalf("promotion result wrong: %+v", promo)
	}
	demo := art.Results[1]
	if demo.Policy != "demotion-fault" || demo.Params["from"] != float64(TierDRAM) || demo.Params["to"] != float64(TierNVM) {
		t.Fatalf("demotion result wrong: %+v", demo)
	}
}
