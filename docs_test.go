package mcnet

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// cmdRef matches a command named by its directory: "./cmd/<name>" or a bare
// "cmd/<name>" token. A longer path such as golang.org/x/perf/cmd/benchstat
// names another module's command and does not match.
var cmdRef = regexp.MustCompile(`(?:^|[^\w./-]|\./)cmd/([\w-]+)`)

// TestDocsNameExistingCommands fails when a document still names a command
// whose directory under cmd/ is gone.
func TestDocsNameExistingCommands(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "doc.go", "Makefile",
		filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names cmd/%s, which is not a directory under cmd/", doc, i+1, m[1])
				}
			}
		}
	}
}
