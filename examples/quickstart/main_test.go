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
	// server tree: tree L=14 Z=4 uniform (16.0 MB server storage for 2.0 MB of data)
	// read back row 42: "hello oblivious world"
	// 2 accesses cost 2 path reads + 2 path writes (30.0 KB moved)
	//
	// trained 4096 accesses in 1 look-ahead window(s): 1024 superblock bins
	// LAORAM session: 4095 accesses served by 1024 path reads (4.00x fewer than one-per-access)
	// bins=1024 coldReads=0 lookaheadRemaps=448 uniformRemaps=3647 (visited 4095 rows)
}
