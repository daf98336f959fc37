package node

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// yamlSyntaxErr is the shape of the YAML subset parser's untyped
// syntax errors.
var yamlSyntaxErr = regexp.MustCompile(`^node: yaml line [0-9]+: `)

// FuzzParseConfig feeds arbitrary text through the hand-written YAML
// subset parser and the config decoder, seeded with the shipped example
// configs. ParseConfig must not panic. A rejection is either a
// `node: yaml line N:` syntax error or a *ConfigError naming its key,
// so an operator can always find the offending line or key. An
// accepted config passes Validate.
func FuzzParseConfig(f *testing.F) {
	paths, err := filepath.Glob("../../examples/configs/*.yaml")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example configs to seed from (err=%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := ParseConfig(src)
		if err == nil {
			if verr := cfg.Validate(); verr != nil {
				t.Fatalf("accepted config fails Validate: %v", verr)
			}
			return
		}
		var ce *ConfigError
		if errors.As(err, &ce) {
			if ce.Key == "" {
				t.Fatalf("ConfigError without a key: %v", err)
			}
			return
		}
		if !yamlSyntaxErr.MatchString(err.Error()) {
			t.Fatalf("rejection is neither a yaml syntax error nor a *ConfigError: %v", err)
		}
	})
}
