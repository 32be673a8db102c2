package main

import (
	"fmt"
	"os"
)

// The seeds fix every figure the example prints.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// phase 1: preempted after 512 of 1024 bins (clean bin boundary)
	// checkpoint: client state 47.6 KB, server tree 2.5 MB
	// phase 2: trained remaining 512 bins after restore (0 cold reads — re-warming look-ahead)
	// verified 4096 rows: no updates lost across the crash ✓
}
