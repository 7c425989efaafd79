package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"catpa/internal/experiments"
	"catpa/internal/obs"
)

// fuzzHeader is the run identity every FuzzCheckpointLine journal is
// opened under: two schemes and two sweep points.
var fuzzHeader = header{
	Version: checkpointVersion,
	Kind:    checkpointKind,
	Name:    "fuzz",
	Seed:    1,
	Sets:    4,
	Workers: 1,
	Schemes: []string{"FFD", "CA-TPA"},
	Values:  []float64{0.5, 0.6},
}

// mustLine json-encodes v into one checksummed journal line.
func mustLine(tb testing.TB, v any) []byte {
	tb.Helper()
	d, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return encodeLine(d)
}

// FuzzCheckpointLine feeds adversarial bytes to the journal reader. It
// never panics, and:
//
//   - a line decodeLine accepts carries the checksum of its record, so
//     re-encoding the record gives a line that decodes to it again;
//   - a journal of an intact header followed by the input opens
//     without error; each point it loads is one the run can use (index
//     in range, one cell per scheme); and loading stops at the first
//     line that is torn, fails its checksum or is no valid record, and
//     counts that line in DroppedLines, which also drops the metrics
//     snapshot;
//   - the input opened as a whole journal is refused, or yields only
//     usable points.
func FuzzCheckpointLine(f *testing.F) {
	point := mustLine(f, &pointRecord{Point: 1, X: 0.6, Cells: make([]experiments.Cell, 2)})
	metrics := mustLine(f, metricsRecord{Metrics: obs.NewRegistry().Snapshot()})
	badCRC := bytes.Clone(point)
	badCRC[len(`{"crc":"`)] ^= 1
	for _, seed := range [][]byte{
		point,
		metrics,
		append(bytes.Clone(point), metrics...),
		point[:len(point)/2],
		point[:len(point)-3],
		badCRC,
		mustLine(f, &pointRecord{Point: 2, Cells: make([]experiments.Cell, 2)}),
		mustLine(f, &pointRecord{Point: -1, Cells: make([]experiments.Cell, 2)}),
		mustLine(f, &pointRecord{Point: 0, Cells: make([]experiments.Cell, 1)}),
		mustLine(f, fuzzHeader),
		mustLine(f, "not a record"),
		[]byte(`{"crc":"00000000","d":null}`),
		[]byte(`{"crc":"","d":`),
		[]byte("{\"crc\":\"x\"}\n\n\n" + strings.Repeat("[", 64)),
		[]byte("\x00\xff\n"),
	} {
		f.Add(seed)
	}
	hdrLine := mustLine(f, fuzzHeader)
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := decodeLine(data); err == nil {
			if again, err := decodeLine(encodeLine(d)); err != nil || !bytes.Equal(again, d) {
				t.Fatalf("record %q does not survive re-encoding: %q, %v", d, again, err)
			}
		}

		dir := t.TempDir()
		path := filepath.Join(dir, "journal")
		if err := os.WriteFile(path, append(bytes.Clone(hdrLine), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := openCheckpoint(path, fuzzHeader, nil)
		if err != nil {
			t.Fatalf("journal with an intact header refused: %v", err)
		}
		checkUsable(t, ck)
		want := 0
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			if !usableLine(line) {
				want = 1
				break
			}
		}
		if ck.DroppedLines != want {
			t.Fatalf("DroppedLines = %d, want %d", ck.DroppedLines, want)
		}
		if want > 0 && ck.LoadedSnapshot != nil {
			t.Fatalf("a journal with a dropped line kept its metrics snapshot")
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if ck, err := openCheckpoint(path, fuzzHeader, nil); err == nil {
			checkUsable(t, ck)
		}
	})
}

// usableLine reports whether the journal reader may load line: it
// decodes with a good checksum into a metrics snapshot or a point
// record of the fuzz run.
func usableLine(line string) bool {
	raw, err := decodeLine([]byte(line))
	if err != nil {
		return false
	}
	var probe journalProbe
	if err := json.Unmarshal(raw, &probe); err != nil {
		return false
	}
	if probe.Metrics != nil {
		return true
	}
	_, err = decodePoint(raw, fuzzHeader)
	return err == nil
}

// checkUsable fails unless every point ck loaded fits the fuzz run.
func checkUsable(t *testing.T, ck *Checkpoint) {
	t.Helper()
	if len(ck.order) != len(ck.recs) {
		t.Fatalf("%d points in journal order, %d loaded", len(ck.order), len(ck.recs))
	}
	for _, p := range ck.order {
		rec, ok := ck.done(p)
		if !ok || rec.Point != p || p < 0 || p >= len(fuzzHeader.Values) || len(rec.Cells) != len(fuzzHeader.Schemes) {
			t.Fatalf("unusable point %d loaded: %+v", p, rec)
		}
	}
}
