package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite scenarios/digests.json from the current report bytes")

// digestsFile holds the committed sha256 of every golden scenario's
// report bytes, keyed by file name, plus the inline specs below.
const digestsFile = "scenarios/digests.json"

// inlineDigestSpecs are pinned alongside the golden files. The
// beep_loss sweep covers the legacy per-edge loss on both adjacency
// backends: n = 200 resolves to the dense matrix, n = 3000 at
// p = 0.003 to the CSR arrays. The wake window turns on persistent MIS
// beeps, so the lossy exchange also sees keep-alive emitters.
var inlineDigestSpecs = map[string]string{
	"inline:beep_loss": `{"graph":{"family":"gnp","p":0.003},"algorithm":"feedback","trials":3,"seed":19,` +
		`"beep_loss":0.1,"wake_window":6,"sweep":{"n":[200,3000],"algorithm":["feedback","afek"]}}`,
}

// slowDigestSpecs are the golden files that take over a second (or
// several under -race); -short leaves them out.
var slowDigestSpecs = map[string]bool{"large-sparse.json": true, "rmat-sparse.json": true}

// reportDigest compiles and runs one spec and hashes its canonical
// report bytes.
func reportDigest(t *testing.T, doc []byte) string {
	t.Helper()
	c, err := ParseCompiledBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenReportDigests pins the result bytes of every golden
// scenario: a change that alters any result, even to another valid
// MIS, fails here. Re-bless deliberately with
//
//	go test ./internal/scenario -run TestGoldenReportDigests -update
//
// and record the reason for the new digests.
func TestGoldenReportDigests(t *testing.T) {
	// Golden specs name their fixtures relative to the repository root.
	t.Chdir(filepath.Join("..", ".."))
	docs := make(map[string][]byte)
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == digestsFile {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs[filepath.Base(f)] = b
	}
	for name, doc := range inlineDigestSpecs {
		docs[name] = []byte(doc)
	}

	want := make(map[string]string)
	if !*update {
		b, err := os.ReadFile(digestsFile)
		if err != nil {
			t.Fatalf("%v (bless with -update)", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", digestsFile, err)
		}
	}
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make(map[string]string, len(docs))
	for _, name := range names {
		if !*update {
			if _, ok := want[name]; !ok {
				t.Errorf("%s has no committed digest (bless with -update)", name)
				continue
			}
			if testing.Short() && slowDigestSpecs[name] {
				continue
			}
		}
		got[name] = reportDigest(t, docs[name])
		if !*update && got[name] != want[name] {
			t.Errorf("%s: report digest %s, committed %s", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := docs[name]; !ok {
			t.Errorf("%s lists %s, which no longer exists", digestsFile, name)
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestsFile)
	}
}
