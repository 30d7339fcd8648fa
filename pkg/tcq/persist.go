package tcq

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/store"
)

// Persistence: a Dataset can be saved as a binary TCSF snapshot (one
// file, loadable in milliseconds instead of re-parsing text and
// re-running the preprocessing searches), or attached to a store
// directory where every applied batch is journaled before it is
// acknowledged and periodic checkpoints keep recovery replay short.
//
//	// cold start from a snapshot file
//	ds, err := tcq.LoadSnapshot("city.tcs")
//
//	// durable deployment
//	if !tcq.HasStore(dir) { tcq.InitStore(dir, ds.Snapshot()) }
//	ds, info, err := tcq.OpenStore(dir, tcq.PersistOptions{})
//	defer ds.Close()
//	// every ds.Apply is now journaled; a crash recovers to the exact
//	// last acknowledged epoch.

// PersistOptions configures a durable store directory.
type PersistOptions struct {
	// CheckpointEvery is the number of journaled batches that triggers
	// a fresh snapshot checkpoint (and journal truncation). 0 means
	// store.DefaultCheckpointEvery; negative disables automatic
	// checkpoints.
	CheckpointEvery int
}

// PersistInfo reports what OpenStore recovered.
type PersistInfo struct {
	// CheckpointEpoch is the epoch of the checkpoint image loaded.
	CheckpointEpoch uint64
	// ReplayedRecords is the number of journal records re-applied on
	// top of the checkpoint.
	ReplayedRecords int
	// TornTail reports that a partially written final journal record
	// was found and truncated (a crash mid-append; the record was
	// never acknowledged).
	TornTail bool
	// Epoch is the recovered dataset's epoch.
	Epoch uint64
	// LoadDuration is the wall-clock time of the checkpoint load.
	LoadDuration time.Duration
}

// PersistStats is a point-in-time view of the persistence counters,
// safe to read concurrently with applies. All-zero for datasets with
// no attached store directory.
type PersistStats struct {
	// JournalRecords counts batches journaled since open.
	JournalRecords uint64
	// JournalAppendSeconds is cumulative journal append+fsync time.
	JournalAppendSeconds float64
	// Checkpoints counts snapshot checkpoints written.
	Checkpoints uint64
	// CheckpointSeconds is cumulative checkpoint wall-clock time.
	CheckpointSeconds float64
	// SaveSeconds is cumulative snapshot-write time (checkpoints and
	// explicit saves through this dataset).
	SaveSeconds float64
	// LoadSeconds is the wall-clock time of the boot-time load
	// (snapshot file or checkpoint).
	LoadSeconds float64
}

// SaveSnapshot writes snap as a binary TCSF image at path, atomically
// (temp file + rename — readers never observe a partial image).
// Returns the image size in bytes.
func SaveSnapshot(path string, snap *Snapshot) (int64, error) {
	if snap == nil {
		return 0, errors.New("tcq: SaveSnapshot: nil snapshot")
	}
	return store.SaveFile(path, snap.st)
}

// LoadSnapshot cold-starts a dataset from a TCSF image: the file is
// read and the store reconstructed without re-parsing text or
// re-running the preprocessing searches. The dataset is NOT durable —
// applies are in-memory only; use OpenStore for journaled durability.
func LoadSnapshot(path string) (*Dataset, error) {
	start := time.Now()
	st, err := store.Load(path)
	if err != nil {
		return nil, err
	}
	d, err := OpenDataset(st)
	if err != nil {
		return nil, err
	}
	d.loadSeconds = time.Since(start).Seconds()
	return d, nil
}

// HasStore reports whether dir holds a recoverable store directory.
func HasStore(dir string) bool { return store.Exists(dir) }

// InitStore seeds dir (created if needed) with a checkpoint of snap.
// It refuses a directory that already holds a checkpoint — existing
// state must be recovered through OpenStore, never overwritten.
func InitStore(dir string, snap *Snapshot) error {
	if snap == nil {
		return errors.New("tcq: InitStore: nil snapshot")
	}
	return store.Init(dir, snap.st)
}

// OpenStore recovers a dataset from a store directory: loads the
// latest checkpoint, truncates a torn journal tail if a crash left
// one, and replays the journaled batches beyond the checkpoint. The
// returned dataset is durable — every subsequent Apply is journaled
// and fsynced before it is acknowledged, and checkpoints are written
// on the configured cadence. Call Close when done with it.
func OpenStore(dir string, opts PersistOptions) (*Dataset, PersistInfo, error) {
	db, st, rec, err := store.Open(dir, store.Options{CheckpointEvery: opts.CheckpointEvery})
	if err != nil {
		return nil, PersistInfo{}, err
	}
	d, err := OpenDataset(st)
	if err != nil {
		db.Close()
		return nil, PersistInfo{}, err
	}
	d.db = db
	d.loadSeconds = rec.LoadDuration.Seconds()
	info := PersistInfo{
		CheckpointEpoch: rec.CheckpointEpoch,
		ReplayedRecords: rec.ReplayedRecords,
		TornTail:        rec.TornTail,
		Epoch:           rec.Epoch,
		LoadDuration:    rec.LoadDuration,
	}
	return d, info, nil
}

// Persistent reports whether the dataset has an attached store
// directory (applies are journaled).
func (d *Dataset) Persistent() bool { return d.db != nil }

// Checkpoint writes a fresh snapshot of the current generation to the
// store directory and truncates the journal, making the next boot
// replay-free. Typically called at clean shutdown. No-op without an
// attached store directory.
func (d *Dataset) Checkpoint() error {
	if d.db == nil {
		return nil
	}
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	return d.db.Checkpoint(d.cur.Load().st)
}

// PersistStats returns the dataset's persistence counters.
func (d *Dataset) PersistStats() PersistStats {
	ps := PersistStats{LoadSeconds: d.loadSeconds}
	if d.db == nil {
		return ps
	}
	s := d.db.Stats()
	ps.JournalRecords = s.JournalRecords
	ps.JournalAppendSeconds = s.JournalAppendSeconds
	ps.Checkpoints = s.Checkpoints
	ps.CheckpointSeconds = s.CheckpointSeconds
	ps.SaveSeconds = s.SaveSeconds
	if ps.LoadSeconds == 0 {
		ps.LoadSeconds = s.LoadSeconds
	}
	return ps
}

// Close releases the attached store directory's journal handle (the
// directory stays recoverable). Datasets without one need no Close.
func (d *Dataset) Close() error {
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	if d.db == nil {
		return nil
	}
	err := d.db.Close()
	d.db = nil
	if err != nil {
		return fmt.Errorf("tcq: close: %w", err)
	}
	return nil
}
