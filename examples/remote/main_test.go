package main

import (
	"bytes"
	"regexp"
	"testing"
)

// The node listens on a port the kernel picks; the seeds fix every other
// figure the example prints.
var port = regexp.MustCompile(`(127\.0\.0\.1:)[0-9]+`)

const want = `server_storage listening on 127.0.0.1:PORT — tree tree L=12 Z=8→4 linear
client connected; server reports tree "tree L=12 Z=8→4 linear"
read row 7 over TCP: "updated over tcp"

session: 2029 row visits via 1374 path reads over the network
server observed: 9187 bucket reads, 11733 bucket writes, 12.37 MB on the wire
…and no pattern in them: every address is a uniformly random path.
`

func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := port.ReplaceAllString(out.String(), "${1}PORT"); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}
