package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dsa"
	"repro/internal/graph"
)

func validEdge() graph.Edge { return graph.Edge{From: 0, To: 1, Weight: 0.5} }

func writeFileForTest(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// testStore builds a small store plus a stream of legal batches for it.
func testStore(t *testing.T) (*dsa.Store, func(epoch uint64) []dsa.EdgeOp) {
	t.Helper()
	st, _ := roadStore(t, dsa.Options{}, 3)
	// Each batch inserts a fresh symmetric shortcut inside fragment 0;
	// weights vary by epoch so replay divergence would change answers.
	batch := func(epoch uint64) []dsa.EdgeOp {
		w := 0.1 + float64(epoch)*0.01
		a, b := graph.NodeID(0), graph.NodeID(epoch%12)
		if a == b {
			b++
		}
		return []dsa.EdgeOp{
			{Kind: dsa.OpInsert, Frag: 0, Edge: graph.Edge{From: a, To: b, Weight: w}},
			{Kind: dsa.OpInsert, Frag: 0, Edge: graph.Edge{From: b, To: a, Weight: w}},
		}
	}
	return st, batch
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), journalName)
	j, recs, torn, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || torn {
		t.Fatalf("fresh journal: recs=%d torn=%v", len(recs), torn)
	}
	want := []journalRecord{
		{Epoch: 1, Ops: []dsa.EdgeOp{{Kind: dsa.OpInsert, Frag: 0, Edge: validEdge()}}},
		{Epoch: 2, Ops: nil},
		{Epoch: 3, Ops: []dsa.EdgeOp{
			{Kind: dsa.OpDelete, Frag: 1, Edge: graph.Edge{From: 5, To: 6, Weight: 2.5}},
			{Kind: dsa.OpInsert, Frag: 0, Edge: graph.Edge{From: 7, To: 8, Weight: 0.125}},
		}},
	}
	for _, rec := range want {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	j2, got, torn, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if torn {
		t.Fatal("clean journal reported torn")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Epoch != want[i].Epoch || len(got[i].Ops) != len(want[i].Ops) {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
		for k := range want[i].Ops {
			if got[i].Ops[k] != want[i].Ops[k] {
				t.Fatalf("record %d op %d: got %+v, want %+v", i, k, got[i].Ops[k], want[i].Ops[k])
			}
		}
	}
}

func TestJournalTruncatesTornTail(t *testing.T) {
	full := encodeJournalRecord(journalRecord{Epoch: 1, Ops: []dsa.EdgeOp{{Kind: dsa.OpInsert, Edge: validEdge()}}})
	second := encodeJournalRecord(journalRecord{Epoch: 2, Ops: []dsa.EdgeOp{{Kind: dsa.OpDelete, Edge: validEdge()}}})
	// Every possible tear point of the second record, including a
	// CRC-corrupted complete frame.
	for cut := 0; cut < len(second); cut++ {
		data := append(bytes.Clone(full), second[:cut]...)
		path := filepath.Join(t.TempDir(), journalName)
		if err := writeFileForTest(path, data); err != nil {
			t.Fatal(err)
		}
		j, recs, torn, err := openJournal(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 1 || recs[0].Epoch != 1 {
			t.Fatalf("cut %d: surviving records %+v", cut, recs)
		}
		if cut > 0 && !torn {
			t.Fatalf("cut %d: tear not reported", cut)
		}
		// The tail must be gone on disk, and the journal must append
		// cleanly at the truncation point.
		if err := j.append(journalRecord{Epoch: 2, Ops: nil}); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		j.close()
		j2, recs2, torn2, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if torn2 || len(recs2) != 2 {
			t.Fatalf("cut %d: reopen after repair: torn=%v recs=%d", cut, torn2, len(recs2))
		}
		j2.close()
	}
	corrupt := append(bytes.Clone(full), second...)
	corrupt[len(full)+10] ^= 0xff
	path := filepath.Join(t.TempDir(), journalName)
	if err := writeFileForTest(path, corrupt); err != nil {
		t.Fatal(err)
	}
	j, recs, torn, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if !torn || len(recs) != 1 {
		t.Fatalf("CRC corruption: torn=%v recs=%d", torn, len(recs))
	}
}

func TestDBInitOpenRoundTrip(t *testing.T) {
	st, batch := testStore(t)
	dir := filepath.Join(t.TempDir(), "db")
	if Exists(dir) {
		t.Fatal("Exists on a missing directory")
	}
	if err := Init(dir, st); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists false after Init")
	}
	if err := Init(dir, st); err == nil {
		t.Fatal("second Init must refuse")
	}

	db, cur, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != st.Epoch() || info.ReplayedRecords != 0 || info.TornTail {
		t.Fatalf("fresh open: %+v", info)
	}
	// Apply three batches through the WAL discipline.
	for i := 0; i < 3; i++ {
		next, _, err := cur.Apply(context.Background(), batch(cur.Epoch()+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(next, batch(cur.Epoch()+1)); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	stats := db.Stats()
	if stats.JournalRecords != 3 || stats.JournalAppendSeconds <= 0 {
		t.Fatalf("stats: %+v", stats)
	}
	db.Close()

	// Recovery must land on the exact acknowledged epoch.
	db2, rec, info2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if info2.Epoch != cur.Epoch() || info2.ReplayedRecords != 3 {
		t.Fatalf("recovery: %+v, want epoch %d", info2, cur.Epoch())
	}
	if rec.Epoch() != cur.Epoch() {
		t.Fatalf("recovered epoch %d, want %d", rec.Epoch(), cur.Epoch())
	}
}

func TestDBCrashRecovery(t *testing.T) {
	// The satellite scenario: torn final journal record AND a leftover
	// checkpoint temp file. Recovery must truncate the tail, remove the
	// temp file, and land on the last acknowledged epoch.
	st, batch := testStore(t)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Init(dir, st); err != nil {
		t.Fatal(err)
	}
	db, cur, _, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var acked *dsa.Store
	for i := 0; i < 3; i++ {
		ops := batch(cur.Epoch() + 1)
		next, _, err := cur.Apply(context.Background(), ops)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(next, ops); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	acked = cur
	db.Close()

	// Simulate the crash aftermath by hand: a half-written journal
	// record (the batch that was never acknowledged) and an in-flight
	// checkpoint temp file.
	torn := encodeJournalRecord(journalRecord{Epoch: acked.Epoch() + 1, Ops: batch(acked.Epoch() + 1)})
	jf, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	tmp := filepath.Join(dir, checkpointName(acked.Epoch())+".garbage.tmp")
	if err := writeFileForTest(tmp, []byte("partial checkpoint")); err != nil {
		t.Fatal(err)
	}

	_, rec, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.TornTail {
		t.Fatal("torn tail not reported")
	}
	if rec.Epoch() != acked.Epoch() {
		t.Fatalf("recovered epoch %d, want last acknowledged %d", rec.Epoch(), acked.Epoch())
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("leftover temp file not removed")
	}
	g := rec.Fragmentation().Base()
	assertSameAnswers(t, acked, rec, g, 40, 11)
}

func TestDBCheckpointCadence(t *testing.T) {
	st, batch := testStore(t)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Init(dir, st); err != nil {
		t.Fatal(err)
	}
	db, cur, _, err := Open(dir, Options{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ops := batch(cur.Epoch() + 1)
		next, _, err := cur.Apply(context.Background(), ops)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(next, ops); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	stats := db.Stats()
	if stats.Checkpoints != 2 {
		t.Fatalf("expected 2 cadence checkpoints, got %d", stats.Checkpoints)
	}
	db.Close()

	// Old checkpoints pruned, latest epoch is the second cadence hit.
	name, epoch, err := latestCheckpoint(dir)
	if err != nil || name == "" {
		t.Fatalf("latestCheckpoint: %q %v", name, err)
	}
	if epoch != st.Epoch()+4 {
		t.Fatalf("latest checkpoint epoch %d, want %d", epoch, st.Epoch()+4)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, ent := range entries {
		if _, ok := parseCheckpointName(ent.Name()); ok {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("expected 1 checkpoint after pruning, got %d", ckpts)
	}

	// Recovery replays only the single record past the checkpoint.
	_, rec, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointEpoch != epoch || info.ReplayedRecords != 1 || rec.Epoch() != cur.Epoch() {
		t.Fatalf("recovery after cadence: %+v, want checkpoint %d + 1 replay to %d", info, epoch, cur.Epoch())
	}
}

func TestDBCrashBetweenCheckpointAndTruncate(t *testing.T) {
	// Worst-case ordering: the checkpoint renamed into place but the
	// crash hit before the journal reset. The journal then holds a
	// stale prefix at-or-below the checkpoint epoch; replay must skip
	// it rather than double-apply.
	st, batch := testStore(t)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Init(dir, st); err != nil {
		t.Fatal(err)
	}
	db, cur, _, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ops := batch(cur.Epoch() + 1)
		next, _, err := cur.Apply(context.Background(), ops)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(next, ops); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	db.Close()
	// Write the checkpoint by hand, leaving the journal untruncated —
	// exactly the state after a crash between SaveFile and reset.
	if _, err := SaveFile(filepath.Join(dir, checkpointName(cur.Epoch())), cur); err != nil {
		t.Fatal(err)
	}

	_, rec, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointEpoch != cur.Epoch() || info.ReplayedRecords != 0 {
		t.Fatalf("stale journal prefix not skipped: %+v", info)
	}
	if rec.Epoch() != cur.Epoch() {
		t.Fatalf("recovered epoch %d, want %d", rec.Epoch(), cur.Epoch())
	}
}

func TestDBOpenEmptyDir(t *testing.T) {
	dir := t.TempDir()
	_, _, _, err := Open(dir, Options{})
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestDBExplicitCheckpoint(t *testing.T) {
	st, batch := testStore(t)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Init(dir, st); err != nil {
		t.Fatal(err)
	}
	db, cur, _, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ops := batch(cur.Epoch() + 1)
	next, _, err := cur.Apply(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(next, ops); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(next); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Journal is empty; recovery is replay-free at the new epoch.
	_, rec, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayedRecords != 0 || rec.Epoch() != next.Epoch() {
		t.Fatalf("after explicit checkpoint: %+v at epoch %d", info, rec.Epoch())
	}
}
