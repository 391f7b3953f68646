package trace

import (
	"encoding/json"
	"fmt"
)

// This file is the wire form of the async solve queue's journal
// (internal/queue): one record per job state transition, framed with
// the store's CRC-32C segment framing. The journal is replayed on
// startup the same way the schedule store's log is — longest clean
// prefix wins, torn or corrupt tails are truncated — so the record
// schema lives here next to StoreRecordJSON and is validated with the
// same rigor: a decoder fed arbitrary bytes must reject anything
// whose fingerprint or verdict fields are malformed, never panic, and
// never hand the queue a job it cannot execute.

// Queue journal record types. A job's lifecycle on disk is
// submitted → started → (done | failed); absence of a terminal record
// means the job is pending again on replay (a crash mid-solve costs
// the work, never the job).
const (
	QueueSubmitted = "submitted"
	QueueStarted   = "started"
	QueueDone      = "done"
	QueueFailed    = "failed"
)

// queueSources is the set of pipeline tiers a done record may name as
// the verdict's origin. "cache" and "store" appear when a queued job's
// class was decided by a concurrent synchronous request before a
// worker reached it.
var queueSources = map[string]bool{
	"analysis": true, "heuristic": true, "exact": true,
	"cache": true, "store": true,
}

// QueueRecordJSON is one queue journal record. Which fields are
// meaningful depends on Type; Validate enforces the shape per type.
// Submitted records written with the retired "priority" and
// "deadlineUnix" keys still decode: encoding/json ignores unknown keys.
type QueueRecordJSON struct {
	// Type is one of QueueSubmitted/QueueStarted/QueueDone/QueueFailed.
	Type string `json:"type"`
	// Fingerprint is the job's canonical model fingerprint — the job
	// ID. Dedup is content addressing: one fingerprint, one live job.
	Fingerprint string `json:"fingerprint"`
	// Unix is the record's creation time in seconds (informational).
	Unix int64 `json:"unix,omitempty"`

	// Model is the submitted workload; submitted records only. It must
	// reconstruct to a valid model — a submitted record whose model
	// does not validate is rejected at decode time, so replay never
	// holds a job it cannot execute.
	Model *ModelJSON `json:"model,omitempty"`

	// Feasible is the decided verdict; done records only.
	Feasible bool `json:"feasible,omitempty"`
	// Source names the pipeline tier that produced the verdict; done
	// records only.
	Source string `json:"source,omitempty"`

	// Error describes a terminal failure; failed records only.
	Error string `json:"error,omitempty"`
}

// validFingerprint checks the canonical-fingerprint shape shared by
// store and queue records: 64 lowercase hex characters.
func validFingerprint(fp string) error {
	if len(fp) != 64 {
		return fmt.Errorf("trace: fingerprint %q is not 64 hex chars", fp)
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("trace: fingerprint %q is not lowercase hex", fp)
		}
	}
	return nil
}

// Validate checks the record's internal consistency per type. For
// submitted records this includes reconstructing the embedded model,
// so a record that validates is a record the queue can execute.
func (r *QueueRecordJSON) Validate() error {
	if err := validFingerprint(r.Fingerprint); err != nil {
		return fmt.Errorf("trace: queue record: %w", err)
	}
	switch r.Type {
	case QueueSubmitted:
		if r.Model == nil {
			return fmt.Errorf("trace: submitted queue record carries no model")
		}
		if r.Source != "" || r.Error != "" || r.Feasible {
			return fmt.Errorf("trace: submitted queue record carries verdict fields")
		}
		if _, err := r.Model.ToModel(); err != nil {
			return fmt.Errorf("trace: submitted queue record model: %w", err)
		}
	case QueueStarted:
		if r.Model != nil || r.Source != "" || r.Error != "" || r.Feasible {
			return fmt.Errorf("trace: started queue record carries extra fields")
		}
	case QueueDone:
		if !queueSources[r.Source] {
			return fmt.Errorf("trace: done queue record has unknown source %q", r.Source)
		}
		if r.Model != nil || r.Error != "" {
			return fmt.Errorf("trace: done queue record carries extra fields")
		}
	case QueueFailed:
		if r.Error == "" {
			return fmt.Errorf("trace: failed queue record carries no error")
		}
		if r.Model != nil || r.Source != "" || r.Feasible {
			return fmt.Errorf("trace: failed queue record carries extra fields")
		}
	default:
		return fmt.Errorf("trace: queue record has unknown type %q", r.Type)
	}
	return nil
}

// EncodeQueueRecord renders a validated record as compact JSON (one
// frame per record, single line).
func EncodeQueueRecord(r *QueueRecordJSON) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// DecodeQueueRecord reconstructs and validates a record.
func DecodeQueueRecord(data []byte) (*QueueRecordJSON, error) {
	var r QueueRecordJSON
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
