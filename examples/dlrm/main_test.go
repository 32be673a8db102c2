package main

import (
	"bytes"
	"regexp"
	"testing"
)

// The planning and training wall times vary run to run; the seeds fix
// every other figure the example prints.
var wallClock = regexp.MustCompile(`(scanned in |row-updates in |wall \()[0-9.µnms]+`)

const want = `DLRM embedding table: 65536 rows × 128 B (insecure size 8.0 MB)
server tree: tree L=16 Z=8→4 linear (68.3 MB)
preprocessor: 16384 accesses from the feed → 4073 bins of 4, scanned in T

trained 16292 row-updates in T wall (T µs/update)
oblivious traffic: 4072 path reads, 4072 path writes, 0 dummy reads (80.82 MB)
accesses per path read: 4.00 (PathORAM would be 1.0; S=4 ideal is 4.0)
simulated DDR4 time: 0.018 s — vs 0.072 s for PathORAM at 1 path/access
row 0 element 0: 0.00666 → -0.01000 ✓
`

func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := wallClock.ReplaceAllString(out.String(), "${1}T"); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}
