package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteCSV emits the stream as "access,index" rows (the format of Fig. 2's
// scatter data), preceded by a header.
func WriteCSV(w io.Writer, stream []uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "access,index"); err != nil {
		return err
	}
	for i, a := range stream {
		if _, err := fmt.Fprintf(bw, "%d,%d\n", i, a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ASCIIScatter renders the stream as a coarse density plot (rows = index
// buckets from high to low, columns = access-time buckets), the terminal
// stand-in for Fig. 2. Darker glyphs mean more hits.
func ASCIIScatter(stream []uint64, n uint64, width, height int) string {
	if len(stream) == 0 || width <= 0 || height <= 0 {
		return ""
	}
	grid := make([][]int, height)
	for i := range grid {
		grid[i] = make([]int, width)
	}
	maxCount := 0
	for i, a := range stream {
		col := i * width / len(stream)
		row := int(a * uint64(height) / n)
		if row >= height {
			row = height - 1
		}
		grid[row][col]++
		if grid[row][col] > maxCount {
			maxCount = grid[row][col]
		}
	}
	glyphs := []byte(" .:*#@")
	var sb strings.Builder
	// Highest indices on top, as in the paper's axes.
	for row := height - 1; row >= 0; row-- {
		for col := 0; col < width; col++ {
			c := grid[row][col]
			if c == 0 {
				sb.WriteByte(glyphs[0])
				continue
			}
			g := 1 + c*(len(glyphs)-2)/maxCount
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			sb.WriteByte(glyphs[g])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
