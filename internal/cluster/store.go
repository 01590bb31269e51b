package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"flov/internal/service"
	"flov/internal/sweep"
)

// Store is the cluster's persistent job/row store: a directory of
// append-only files that any number of processes open concurrently.
// Every mutation is either an atomic filesystem operation (link, rename)
// or a single O_APPEND write of one complete NDJSON line, so a crash at
// any instant leaves at worst a torn final line, which every reader
// tolerates. A Store handle is safe for concurrent use.
type Store struct {
	dir string

	mu sync.Mutex // serializes this handle's appends (cross-process safety is O_APPEND)
}

// Store errors.
var (
	// ErrUnknownJob reports a job id with no record in the store.
	ErrUnknownJob = errors.New("cluster: unknown job")
	// ErrLeaseHeld reports a claim attempt on a job whose current lease
	// has not expired.
	ErrLeaseHeld = errors.New("cluster: lease held by another worker")
	// ErrLeaseLost reports a renew on a lease that was superseded by a
	// higher epoch (another worker stole the job).
	ErrLeaseLost = errors.New("cluster: lease lost")
)

// JobRecord is the durable description of one submitted job: the fully
// expanded point list plus identity and scheduling metadata. The record
// is immutable once published; all execution state (rows, leases,
// snapshots) lives beside it.
type JobRecord struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// SpecHash is the dedup identity: the hash of the expanded point
	// hashes, shared with the single-node daemon's dedup key.
	SpecHash string      `json:"spec_hash"`
	Points   []sweep.Job `json:"points"`
	// SubmittedMS stamps admission (unix milliseconds).
	SubmittedMS int64 `json:"submitted_ms"`
	// DeadlineMS is the absolute completion deadline (unix milliseconds;
	// 0 = none). Absolute, not a duration: the clock must not restart
	// when the job is requeued or stolen.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// DoneRecord is the terminal marker of a finished job.
type DoneRecord struct {
	State      string `json:"state"` // done | canceled
	Reason     string `json:"reason,omitempty"`
	FinishedMS int64  `json:"finished_ms"`
	Errors     int    `json:"errors"` // error-carrying rows in the final set
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"jobs", "leases", "events", "results", "snaps"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cluster: create store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// JobID derives the job id from a point list. Content-addressed: the
// same spec is the same job cluster-wide, which makes submission
// idempotent and dedups identical concurrent submissions for free.
func JobID(points []sweep.Job) string {
	return "j" + sweep.PointsHash(points)[:16]
}

func (s *Store) jobPath(id string) string     { return filepath.Join(s.dir, "jobs", id+".json") }
func (s *Store) donePath(id string) string    { return filepath.Join(s.dir, "jobs", id+".done.json") }
func (s *Store) eventsPath(id string) string  { return filepath.Join(s.dir, "events", id+".ndjson") }
func (s *Store) resultsPath(id string) string { return filepath.Join(s.dir, "results", id+".json") }
func (s *Store) snapPath(id string, point int) string {
	return filepath.Join(s.dir, "snaps", id, fmt.Sprintf("%d.snap", point))
}

// publish writes data to a unique temp file and links it to path: the
// link is the atomic commit, failing with EEXIST when another process
// published first. Content is complete at commit time by construction.
func publish(path string, data []byte) (won bool, err error) {
	name, err := writeTemp(path, data)
	if err != nil {
		return false, err
	}
	defer func() { _ = os.Remove(name) }() // best effort; the link keeps the inode alive
	if err := os.Link(name, path); err != nil {
		if os.IsExist(err) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// replace atomically replaces path with data (temp file, then rename),
// so readers see the old bytes or the new, never a mix.
func replace(path string, data []byte) error {
	name, err := writeTemp(path, data)
	if err != nil {
		return err
	}
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name)
		return err
	}
	return nil
}

// writeTemp writes data to a fresh temp file beside path and returns
// its name.
func writeTemp(path string, data []byte) (string, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return "", err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// appendLine appends one complete line to path with a single write, so
// concurrent appenders (including other processes) interleave whole
// lines, never fragments, on local filesystems. A file that does not
// end in a newline holds a crashed writer's fragment; the write then
// starts with one, so the fragment becomes its own (unparseable) line
// instead of swallowing this one.
func (s *Store) appendLine(path string, line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	last := []byte{'\n'}
	if _, err := f.Seek(-1, io.SeekEnd); err == nil { // fails on an empty file
		_, _ = f.Read(last)
	}
	if last[0] != '\n' {
		line = append([]byte{'\n'}, line...)
	}
	if !bytes.HasSuffix(line, []byte("\n")) {
		line = append(line, '\n')
	}
	_, werr := f.Write(line)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// Submit publishes a job record. Submission is idempotent on the
// content-addressed id: a record already present is returned as-is with
// created=false, so concurrent identical submissions coincide instead
// of racing.
func (s *Store) Submit(rec JobRecord) (JobRecord, bool, error) {
	if rec.ID == "" {
		rec.ID = JobID(rec.Points)
	}
	if rec.SpecHash == "" {
		rec.SpecHash = sweep.PointsHash(rec.Points)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return JobRecord{}, false, fmt.Errorf("cluster: encode job: %w", err)
	}
	won, err := publish(s.jobPath(rec.ID), data)
	if err != nil {
		return JobRecord{}, false, fmt.Errorf("cluster: publish job: %w", err)
	}
	if won {
		return rec, true, nil
	}
	existing, err := s.Job(rec.ID)
	if err != nil {
		return JobRecord{}, false, err
	}
	return existing, false, nil
}

// Job reads a job record by id.
func (s *Store) Job(id string) (JobRecord, error) {
	data, err := os.ReadFile(s.jobPath(id))
	if err != nil {
		return JobRecord{}, ErrUnknownJob
	}
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return JobRecord{}, fmt.Errorf("cluster: corrupt job record %s: %w", id, err)
	}
	return rec, nil
}

// List returns every submitted job id, sorted for deterministic scans.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".done.json") || !strings.HasSuffix(name, ".json") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(ids)
	return ids, nil
}

// MarkDone publishes the terminal marker. First writer wins; a losing
// write (a raced steal finishing the same job) is not an error — both
// computed byte-identical results.
func (s *Store) MarkDone(id string, rec DoneRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: encode done record: %w", err)
	}
	if _, err := publish(s.donePath(id), data); err != nil {
		return fmt.Errorf("cluster: publish done record: %w", err)
	}
	return nil
}

// Done reports the terminal marker of a job, if present.
func (s *Store) Done(id string) (DoneRecord, bool) {
	data, err := os.ReadFile(s.donePath(id))
	if err != nil {
		return DoneRecord{}, false
	}
	var rec DoneRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return DoneRecord{}, false
	}
	return rec, true
}

// Rows reads the durable rows of a job from the row-carrying point
// events of its feed, keyed by point index. Events withholds a torn
// final line (crash mid-append); unparseable lines, other event types
// and error-carrying rows are skipped, and duplicate rows for one point
// resolve last-write-wins. Each row is pinned to the job hash of its
// point: a row for the wrong point (foreign writer, corrupted index) is
// dropped rather than adopted.
func (s *Store) Rows(id string, points []sweep.Job) (map[int]sweep.Result, error) {
	lines, err := s.Events(id, 0)
	if err != nil {
		return nil, err
	}
	rows := make(map[int]sweep.Result)
	for _, line := range lines {
		var ev service.StreamEvent
		if json.Unmarshal(line, &ev) != nil || ev.Type != service.EventPoint ||
			ev.Result == nil || ev.Result.Err != "" ||
			ev.Index < 0 || ev.Index >= len(points) ||
			ev.Result.Job.Hash() != points[ev.Index].Hash() {
			continue
		}
		rows[ev.Index] = *ev.Result
	}
	return rows, nil
}

// PutSnapshot stores a point's mid-run checkpoint (atomic replace).
func (s *Store) PutSnapshot(id string, point int, data []byte) error {
	if err := os.MkdirAll(filepath.Join(s.dir, "snaps", id), 0o755); err != nil {
		return err
	}
	return replace(s.snapPath(id, point), data)
}

// Snapshot reads a point's checkpoint; a missing file is simply absent
// (the point starts cold). Integrity is the restorer's concern — the
// snapshot container is CRC-guarded, and a corrupt checkpoint fails the
// resume loudly rather than silently diverging.
func (s *Store) Snapshot(id string, point int) ([]byte, bool) {
	data, err := os.ReadFile(s.snapPath(id, point))
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return data, true
}

// RemoveSnapshots deletes a finished job's checkpoint directory.
func (s *Store) RemoveSnapshots(id string) {
	_ = os.RemoveAll(filepath.Join(s.dir, "snaps", id))
}

// AppendEvent appends one service.StreamEvent line to the job's feed,
// the store's single log per job: point events carry the finished rows
// that Rows reads back.
func (s *Store) AppendEvent(id string, line []byte) error {
	return s.appendLine(s.eventsPath(id), line)
}

// Events returns the feed lines from index from onward. A torn final
// line (a writer crashed or is mid-append) is withheld until complete,
// so replayed offsets are stable: line i is line i forever.
func (s *Store) Events(id string, from int) ([][]byte, error) {
	data, err := os.ReadFile(s.eventsPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var lines [][]byte
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break // no trailing newline: torn tail, not yet visible
		}
		line := data[:i]
		data = data[i+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines = append(lines, line)
	}
	if from >= len(lines) {
		return nil, nil
	}
	return lines[from:], nil
}

// WriteResults publishes the canonical final row set (atomic replace;
// raced writers produce byte-identical bytes, so last-wins is safe).
func (s *Store) WriteResults(id string, data []byte) error {
	return replace(s.resultsPath(id), data)
}

// Results reads the canonical final row set of a finished job.
func (s *Store) Results(id string) ([]byte, bool) {
	data, err := os.ReadFile(s.resultsPath(id))
	if err != nil {
		return nil, false
	}
	return data, true
}

// assembleRows builds the job's final row set in point order from the
// durable rows plus this slice's in-memory outcomes (Rows skips error
// rows, so they only exist in slice). Points with neither —
// a deadline or cancellation hit before they ran — report canceled,
// matching the single-node daemon. Pure and deterministic by
// construction: it is a flovlint reach root, because its output is the
// byte-compared artifact of the cluster's equivalence contract.
func assembleRows(points []sweep.Job, durable, slice map[int]sweep.Result) []sweep.Result {
	full := make([]sweep.Result, len(points))
	for i := range points {
		if r, ok := durable[i]; ok {
			full[i] = r
			continue
		}
		if r, ok := slice[i]; ok {
			full[i] = r
			continue
		}
		full[i] = sweep.Result{Job: points[i], Err: context.Canceled.Error()}
	}
	return full
}

// MarshalResults renders rows exactly as `flovsweep -format json` does
// (indented encoder, trailing newline), so a cluster job's results file
// diffs byte-identically against a single-node run of the same spec.
func MarshalResults(rows []sweep.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// JobState derives a job's lifecycle state from the store: the terminal
// marker wins, a live lease means running, anything else is queued.
func (s *Store) JobState(id string) string {
	if done, ok := s.Done(id); ok {
		return done.State
	}
	if info, ok := s.CurrentLease(id); ok && !info.Expired(time.Now()) {
		return service.StateRunning
	}
	return service.StateQueued
}
