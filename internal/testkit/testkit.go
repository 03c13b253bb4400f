// Package testkit holds shared test fixtures. It exists so that the
// production packages carry no panicking convenience constructors: the old
// trace.MustGenerate / profile.MustSynthesize helpers now live here, where a
// panic on a statically mistyped test configuration is a test failure and
// nothing more. Production code must use trace.Generate / profile.Synthesize
// and handle the error.
//
// This package is imported only from _test.go files.
package testkit

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
)

// Gen generates a synthetic trace for a static test configuration, panicking
// on configuration errors (which can only be programmer mistakes in a test).
func Gen(cfg trace.GenConfig) *trace.Trace {
	t, err := trace.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Synth synthesizes a timing profile for a static test configuration,
// panicking on configuration errors.
func Synth(nfuncs int, cfg profile.TimingConfig) *profile.Profile {
	p, err := profile.Synthesize(nfuncs, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// FuzzCorpusTraces decodes the trace codecs' fuzz seed corpus
// (internal/trace/testdata/fuzz, both codecs) into traces named
// "<fuzz target>/<file>", skipping the empty ones and those the codecs
// reject. It reads the corpus relative to the calling test's package
// directory, which must sit directly under internal/.
func FuzzCorpusTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	var out []*trace.Trace
	for _, dir := range []string{"FuzzReadBinary", "FuzzReadText"} {
		root := filepath.Join("..", "trace", "testdata", "fuzz", dir)
		entries, err := os.ReadDir(root)
		if err != nil {
			tb.Fatalf("reading fuzz corpus %s: %v", root, err)
		}
		for _, ent := range entries {
			if ent.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(root, ent.Name()))
			if err != nil {
				tb.Fatal(err)
			}
			payload, ok := decodeCorpusEntry(string(data))
			if !ok {
				tb.Fatalf("unparseable corpus file %s/%s", dir, ent.Name())
			}
			var tr *trace.Trace
			if dir == "FuzzReadBinary" {
				tr, err = trace.ReadBinary(bytes.NewReader([]byte(payload)))
			} else {
				tr, err = trace.ReadText(bytes.NewReader([]byte(payload)))
			}
			if err != nil || tr.Len() == 0 {
				continue
			}
			tr.Name = dir + "/" + ent.Name()
			out = append(out, tr)
		}
	}
	if len(out) == 0 {
		tb.Fatal("fuzz corpus produced no decodable traces")
	}
	return out
}

// decodeCorpusEntry extracts the single []byte("...") or string("...")
// argument of a "go test fuzz v1" corpus file.
func decodeCorpusEntry(data string) (string, bool) {
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return "", false
	}
	arg := strings.TrimSpace(lines[1])
	open := strings.Index(arg, "(")
	if open < 0 || !strings.HasSuffix(arg, ")") {
		return "", false
	}
	s, err := strconv.Unquote(arg[open+1 : len(arg)-1])
	if err != nil {
		return "", false
	}
	return s, true
}
