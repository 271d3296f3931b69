package segment

import (
	"os"
	"path/filepath"
	"strings"
)

// Clean removes segment files in dir that keep does not list: leftovers of
// a seal whose checkpoint never committed, stale temp files, and segments
// only pruned checkpoints pointed at. It is called after a checkpoint
// publishes, with keep the union of every retained checkpoint's refs:
// a seal may merge segments that older retained checkpoints still list,
// and files are only ever deleted here, never at open, so a recovery that
// falls back to an older checkpoint still finds every segment it needs.
func Clean(dir string, keep []Ref) (removed int, err error) {
	keepNames := make(map[string]struct{}, len(keep))
	for _, r := range keep {
		keepNames[r.Filename()] = struct{}{}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") {
			continue
		}
		if _, ok := keepNames[name]; ok {
			continue
		}
		if !strings.HasSuffix(name, ".seg") && !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}
