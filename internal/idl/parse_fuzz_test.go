package idl

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary text through the IDL lexer and parser,
// seeded with every checked-in .hrpc file. Parse must not panic, and
// exactly one of the document and the error is nil: a failed parse
// never hands back a partial document, and a successful one always
// carries a document.
func FuzzParse(f *testing.F) {
	var paths []string
	for _, pattern := range []string{"../../examples/*/*.hrpc", "../*/*.hrpc"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		f.Fatal("no .hrpc files to seed from")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, _, err := Parse("fuzz.hrpc", src)
		if (doc == nil) == (err == nil) {
			t.Fatalf("Parse returned doc=%v err=%v: want exactly one nil", doc != nil, err)
		}
	})
}
