package service

import (
	"fmt"
	"time"

	"rtm/internal/core"
	"rtm/internal/store"
)

// This file is the bridge between the service's canonical cache
// entries and the durable store's wire records. The store is L2
// behind the LRU: probed on an LRU miss, written through on every
// decided solve. Records are trusted for nothing — entryFromRecord
// checks shape, and the regular materialize path re-verifies the
// schedule against the requesting model, so disk content can only
// ever cost a miss.

// entryFromRecord converts a store record into a cache entry,
// rejecting records that disagree with the requesting model's
// canonical shape. memoCap wires the service's verified-hit memo
// policy into the revived entry.
func entryFromRecord(key string, can *core.Canonical, rec *store.Record, memoCap int) (*entry, error) {
	if rec.Fingerprint != key {
		return nil, fmt.Errorf("service: store record for %s surfaced under %s", rec.Fingerprint, key)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	if rec.Elements != len(can.Order) {
		return nil, fmt.Errorf("service: store record has %d canonical elements, model has %d",
			rec.Elements, len(can.Order))
	}
	e := &entry{key: key, decided: true, feasible: rec.Feasible, source: rec.Source, memoCap: memoCap}
	if rec.Feasible {
		e.slots = rec.Slots
	}
	return e, nil
}

// recordFromEntry converts a decided cache entry into its wire
// record. Undecided entries are never persisted (the caller gates on
// decided; a bigger budget may still decide the class later).
func recordFromEntry(can *core.Canonical, e *entry) *store.Record {
	return &store.Record{
		Fingerprint: e.key,
		Feasible:    e.feasible,
		Elements:    len(can.Order),
		Slots:       e.slots,
		Source:      e.source,
		Unix:        time.Now().Unix(),
	}
}

// Snapshot returns the service counters (Metrics.Snapshot) plus the
// cache and store gauges: cache_len and cache_shards, and — when a
// store is attached — store_len and store_bytes, with the store's own
// scan-time discard events folded into store_corrupt_skipped
// alongside the serve-time re-verification failures. When an async
// solve queue is attached, its counters and gauges are folded in
// under queue_* names (depth, oldest job age, completion/failure
// totals), so /metrics is the one pane of glass for all three tiers.
func (s *Service) Snapshot() map[string]int64 {
	snap := s.metrics.Snapshot()
	snap["cache_len"] = int64(s.CacheLen())
	snap["cache_shards"] = int64(s.CacheShards())
	if st := s.opt.Store; st != nil {
		snap["store_len"] = int64(st.Len())
		snap["store_bytes"] = st.Bytes()
		snap["store_corrupt_skipped"] += st.CorruptSkipped()
	}
	if q := s.opt.Queue; q != nil {
		qs := q.Stats()
		snap["queue_depth"] = qs.Depth
		snap["queue_running"] = qs.Running
		snap["queue_oldest_age_ms"] = qs.OldestAgeNS / 1e6
		snap["queue_submitted"] = qs.Submitted
		snap["queue_deduped"] = qs.Deduped
		snap["queue_completed"] = qs.Completed
		snap["queue_failed"] = qs.Failed
		snap["queue_resumed"] = qs.Resumed
		snap["queue_corrupt_skipped"] = qs.CorruptTail
		snap["queue_journal_errors"] = qs.JournalErrors
	}
	return snap
}

// MetricsText renders Snapshot as sorted "rtm_<name> <value>" lines
// (the daemon's /metrics body).
func (s *Service) MetricsText() string {
	return renderMetrics(s.Snapshot())
}
