// Package embed holds the embedding-table row helpers the paper's
// evaluation shapes need (§I-A, §VII-B): fixed-width float32 rows stored as
// ORAM blocks, their little-endian codec, a deterministic row initialiser,
// and the model configurations of Table I (DLRM/Kaggle rows of 128 bytes,
// XLM-R/XNLI rows of 4 KB). The training loop itself is laoram.ORAM.Train
// with a Visit callback.
package embed

import (
	"encoding/binary"
	"fmt"
	"math"
)

// TableConfig describes one embedding table.
type TableConfig struct {
	// Rows is the number of embedding entries.
	Rows uint64
	// Dim is the embedding dimension (float32 elements per row).
	Dim int
}

// RowBytes returns the serialized size of one row.
func (c TableConfig) RowBytes() int { return 4 * c.Dim }

// DLRMConfig is the paper's DLRM/Kaggle table: the largest Criteo-Kaggle
// table has 10,131,227 entries of 128 bytes (32 float32s). rows lets the
// caller scale down while keeping the row shape.
func DLRMConfig(rows uint64) TableConfig {
	if rows == 0 {
		rows = 10131227
	}
	return TableConfig{Rows: rows, Dim: 32}
}

// XLMRConfig is the paper's XLM-R/XNLI table: 262,144 entries of 4 KB
// (1024 float32s).
func XLMRConfig(rows uint64) TableConfig {
	if rows == 0 {
		rows = 262144
	}
	return TableConfig{Rows: rows, Dim: 1024}
}

// EncodeRow serialises a row vector into block payload bytes
// (little-endian IEEE-754).
func EncodeRow(row []float32) []byte {
	out := make([]byte, 4*len(row))
	for i, v := range row {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// DecodeRow parses block payload bytes into a row vector.
func DecodeRow(payload []byte) ([]float32, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("embed: payload length %d not a multiple of 4", len(payload))
	}
	out := make([]float32, len(payload)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// InitRow returns the deterministic initial embedding vector for a row:
// a cheap hash-based pseudo-random initialisation in [-0.05, 0.05), the
// usual scale for embedding init, reproducible across secure and insecure
// runs.
func InitRow(cfg TableConfig, id uint64) []float32 {
	row := make([]float32, cfg.Dim)
	for i := range row {
		h := splitmix64(id*0x9E3779B97F4A7C15 + uint64(i) + 1)
		// Map to [-0.05, 0.05).
		row[i] = (float32(h>>40)/float32(1<<24) - 0.5) * 0.1
	}
	return row
}

// InitRowBytes is InitRow pre-encoded, the payload generator for ORAM
// loading.
func InitRowBytes(cfg TableConfig) func(id uint64) []byte {
	return func(id uint64) []byte { return EncodeRow(InitRow(cfg, id)) }
}

// splitmix64 is the standard 64-bit mix function (public domain).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
