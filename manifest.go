package colsort

// The run manifest: the write-ahead log that makes a checkpointed
// hierarchical sort crash-safe. It is a JSON-lines file (manifest.wal) in
// the job's checkpoint directory, appended and fsync'd at each durability
// point:
//
//	begin        the resolved job parameters (n, record size, run plan,
//	             fan-in, key spec, caps) — written once, first
//	run          one verified spilled run: its file path, record count,
//	             direction and CRC32C sidecar — appended only AFTER the
//	             run's bytes are fsync'd
//	ingest_done  run formation complete; carries the full ingest multiset
//	             checksum the final merge must reproduce
//	merged       one intermediate merge: the output run (same fields as
//	             "run") and the ids of the inputs it consumed — appended
//	             after the output is fsync'd and BEFORE the input files are
//	             removed, so a crash between the two only leaves orphans
//	done         the sort completed and the sink holds the verified output
//
// Replay (readManifest) folds the log into the live run set: every "run"
// and "merged" output not consumed by a later "merged" entry. A torn final
// line — the crash hit mid-append — is ignored: the entry's durability
// point was not reached, so whatever it described is redone or swept as an
// orphan. See DESIGN.md §12 for the full durability contract.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/record"
)

// manifestName is the WAL's file name inside the checkpoint directory.
const manifestName = "manifest.wal"

// ckptRunPrefix leads every spill file a checkpointed job creates in its
// checkpoint directory, so cleanup and orphan GC can identify the job's
// files without touching anything else living there.
const ckptRunPrefix = "ckpt-"

// manifestRun describes one durable spilled run.
type manifestRun struct {
	ID         int      `json:"id"`
	Path       string   `json:"path"`
	Records    int64    `json:"records"`
	Descending bool     `json:"descending,omitempty"`
	FrameBytes int      `json:"frame_bytes"`
	CRCs       []uint32 `json:"crcs"`
}

// manifestEntry is one WAL line; Type selects which fields are meaningful.
type manifestEntry struct {
	Type string `json:"type"`

	// begin
	N          int64    `json:"n,omitempty"`
	RecordSize int      `json:"record_size,omitempty"`
	RunRecords int64    `json:"run_records,omitempty"`
	FanIn      int      `json:"fan_in,omitempty"`
	Alg        int      `json:"alg,omitempty"`
	AlgName    string   `json:"alg_name,omitempty"` // display only; Alg is parsed
	KeySpec    *KeySpec `json:"key_spec,omitempty"`
	MaxMemory  int64    `json:"max_memory,omitempty"`

	// run and merged
	Run *manifestRun `json:"run,omitempty"`
	// ingest_done: the ingest multiset checksum.
	Want *record.Checksum `json:"want,omitempty"`
	// merged: ids of the input runs the output consumed.
	Inputs []int `json:"inputs,omitempty"`
}

// manifestLog is the append side of the WAL. A nil *manifestLog is a valid
// no-op logger, so the hierarchical path calls it unconditionally.
type manifestLog struct {
	dir    string
	f      *os.File
	runSeq int
}

// openManifestLog opens (creating the directory if needed) the WAL for
// appending. firstID seeds the run-id sequence — a resumed job continues
// numbering after the ids already in the log.
func openManifestLog(dir string, firstID int) (*manifestLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colsort: checkpoint dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("colsort: checkpoint manifest: %w", err)
	}
	return &manifestLog{dir: dir, f: f, runSeq: firstID}, nil
}

// append writes one entry as a JSON line and fsyncs it — the entry is
// durable when append returns, not before.
func (l *manifestLog) append(e manifestEntry) error {
	if l == nil {
		return nil
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("colsort: encoding manifest entry: %w", err)
	}
	data = append(data, '\n')
	if _, err := l.f.Write(data); err != nil {
		return fmt.Errorf("colsort: appending manifest entry: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("colsort: syncing manifest: %w", err)
	}
	return nil
}

// logBegin records the job's resolved parameters.
func (l *manifestLog) logBegin(o sortOptions, recordSize int, n, runRecords int64, fanIn int) error {
	if l == nil {
		return nil
	}
	e := manifestEntry{
		Type:       "begin",
		N:          n,
		RecordSize: recordSize,
		RunRecords: runRecords,
		FanIn:      fanIn,
		Alg:        int(o.alg),
		AlgName:    o.alg.String(),
		MaxMemory:  o.maxMemory,
	}
	if o.keySpec != (KeySpec{}) {
		ks := o.keySpec
		e.KeySpec = &ks
	}
	return l.append(e)
}

// describeRun captures a spilled run's durable identity. The run's disk
// must already be fsync'd (pdm.SyncDisk) — the manifest claims durability,
// it does not create it.
func describeRun(id int, r *merge.Run) *manifestRun {
	return &manifestRun{
		ID:         id,
		Path:       pdm.DiskPath(r.Disk),
		Records:    r.Records,
		Descending: r.Descending,
		FrameBytes: r.FrameBytes,
		CRCs:       r.CRCs(),
	}
}

// logRun records one verified formation run, returning its manifest id.
func (l *manifestLog) logRun(r *merge.Run) (int, error) {
	if l == nil {
		return 0, nil
	}
	l.runSeq++
	id := l.runSeq
	return id, l.append(manifestEntry{Type: "run", Run: describeRun(id, r)})
}

// logIngestDone marks run formation complete with the full ingest checksum.
func (l *manifestLog) logIngestDone(want record.Checksum) error {
	if l == nil {
		return nil
	}
	w := want
	return l.append(manifestEntry{Type: "ingest_done", Want: &w})
}

// logMerged records one intermediate merge output and the input ids it
// consumed, returning the output's manifest id. Call it after the output
// is fsync'd and before the input files are removed.
func (l *manifestLog) logMerged(out *merge.Run, inputs []int) (int, error) {
	if l == nil {
		return 0, nil
	}
	l.runSeq++
	id := l.runSeq
	return id, l.append(manifestEntry{Type: "merged", Run: describeRun(id, out), Inputs: append([]int(nil), inputs...)})
}

// complete writes the done entry, closes the WAL, and best-effort removes
// the checkpoint directory's contents — the sort succeeded, so the
// checkpoint state has served its purpose. Cleanup failures are swallowed:
// the output is already delivered and a leftover manifest recording "done"
// is refused by Resume anyway.
func (l *manifestLog) complete() {
	if l == nil {
		return
	}
	_ = l.append(manifestEntry{Type: "done"})
	_ = l.f.Close()
	if ents, err := os.ReadDir(l.dir); err == nil {
		for _, de := range ents {
			if !de.IsDir() && (strings.HasPrefix(de.Name(), ckptRunPrefix) || de.Name() == manifestName) {
				_ = os.Remove(filepath.Join(l.dir, de.Name()))
			}
		}
	}
	_ = os.Remove(l.dir) // only if nothing else lives there
}

// close releases the WAL file handle without cleanup — the failure path,
// which must leave every durable byte in place for a later Resume.
func (l *manifestLog) close() {
	if l == nil {
		return
	}
	_ = l.f.Close()
}

// manifestState is the fold of one WAL replay.
type manifestState struct {
	begin      manifestEntry
	live       []*manifestRun // runs not consumed by a later merged entry, log order
	ingestDone bool
	finalWant  record.Checksum
	done       bool
	maxID      int
}

// readManifest replays the WAL at dir. A torn final line is ignored; any
// earlier malformed line fails the replay (the file is corrupt, not merely
// truncated by a crash). Fields this version no longer writes — an older
// manifest's begin "formation" and run "consumed"/"want" — are unknown to
// manifestEntry and ignored by encoding/json, so such a manifest replays.
func readManifest(dir string) (*manifestState, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("colsort: no resumable manifest at %s: %w", dir, err)
	}
	defer f.Close()

	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20) // CRC sidecars make long lines
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("colsort: reading manifest: %w", err)
	}

	st := &manifestState{}
	liveByID := make(map[int]*manifestRun)
	order := []int{}
	haveBegin := false
	for i, line := range lines {
		var e manifestEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			if i == len(lines)-1 {
				break // torn final append: the entry never became durable
			}
			return nil, fmt.Errorf("colsort: corrupt manifest at %s line %d: %w", dir, i+1, err)
		}
		switch e.Type {
		case "begin":
			if haveBegin {
				return nil, fmt.Errorf("colsort: corrupt manifest at %s: duplicate begin entry", dir)
			}
			st.begin, haveBegin = e, true
		case "run":
			if e.Run == nil {
				return nil, fmt.Errorf("colsort: corrupt manifest at %s: run entry without run", dir)
			}
			liveByID[e.Run.ID] = e.Run
			order = append(order, e.Run.ID)
			if e.Run.ID > st.maxID {
				st.maxID = e.Run.ID
			}
		case "ingest_done":
			st.ingestDone = true
			if e.Want != nil {
				st.finalWant = *e.Want
			}
		case "merged":
			if e.Run == nil {
				return nil, fmt.Errorf("colsort: corrupt manifest at %s: merged entry without run", dir)
			}
			for _, id := range e.Inputs {
				delete(liveByID, id)
			}
			liveByID[e.Run.ID] = e.Run
			order = append(order, e.Run.ID)
			if e.Run.ID > st.maxID {
				st.maxID = e.Run.ID
			}
		case "done":
			st.done = true
		default:
			return nil, fmt.Errorf("colsort: corrupt manifest at %s: unknown entry type %q", dir, e.Type)
		}
	}
	if !haveBegin {
		return nil, fmt.Errorf("colsort: manifest at %s has no begin entry; nothing to resume", dir)
	}
	for _, id := range order {
		if r, ok := liveByID[id]; ok {
			st.live = append(st.live, r)
			delete(liveByID, id) // a merged output re-listing an id keeps one copy
		}
	}
	return st, nil
}

// sweepOrphanRuns removes every checkpoint spill file in dir that no live
// manifest run references — the half-written run or merge output a crash
// left behind, and the consumed inputs whose removal the crash interrupted.
// It returns how many files were removed.
func sweepOrphanRuns(dir string, live []*manifestRun) int {
	referenced := make(map[string]bool, len(live))
	for _, r := range live {
		referenced[filepath.Base(r.Path)] = true
	}
	removed := 0
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, ckptRunPrefix) || referenced[name] {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}
