package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseCorpusGolden pins what Parse makes of every shipped scenario,
// field by field, so a default, a key or a union arm that decodes differently
// shows as a diff. Regenerate, when the schema or the corpus changes, as the
// metrics goldens: UPDATE_METRICS_GOLDEN=1 go test ./internal/scenario -run Golden.
func TestParseCorpusGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios: %v", err)
	}
	var got bytes.Buffer
	for _, p := range paths {
		sc, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(sc, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		got.Write(js)
		got.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "parse_corpus.golden.json")
	if os.Getenv("UPDATE_METRICS_GOLDEN") == "1" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s:%d: decoded %q, golden %q", golden, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: decoded dump has %d lines, golden %d", golden, len(gl), len(wl))
	}
}
