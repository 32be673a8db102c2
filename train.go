package laoram

import (
	"repro/internal/embed"
	"repro/internal/trace"
)

// This file re-exports the embedding-table training helpers the examples
// and downstream users need, so they can stay on the public API. They
// plug directly into ORAM.Train: InitRowBytes produces the
// TrainOptions.Payload initialiser and GenerateTrace/FromTrace produce
// evaluation IndexSources.

// TableConfig describes an embedding table (rows × float32 dimension).
type TableConfig = embed.TableConfig

// DLRMTable returns the paper's DLRM/Kaggle table shape (128-byte rows);
// rows=0 selects the full 10,131,227.
func DLRMTable(rows uint64) TableConfig { return embed.DLRMConfig(rows) }

// XLMRTable returns the paper's XLM-R/XNLI table shape (4 KB rows); rows=0
// selects the full 262,144.
func XLMRTable(rows uint64) TableConfig { return embed.XLMRConfig(rows) }

// EncodeRow serialises an embedding vector into block payload bytes.
func EncodeRow(row []float32) []byte { return embed.EncodeRow(row) }

// DecodeRow parses block payload bytes into an embedding vector.
func DecodeRow(payload []byte) ([]float32, error) { return embed.DecodeRow(payload) }

// InitRow returns the deterministic initial embedding vector for a row.
func InitRow(cfg TableConfig, id uint64) []float32 { return embed.InitRow(cfg, id) }

// InitRowBytes returns a payload initialiser for Load and
// TrainOptions.Payload.
func InitRowBytes(cfg TableConfig) func(id uint64) []byte {
	f := embed.InitRowBytes(cfg)
	return func(id uint64) []byte { return f(id) }
}

// TraceConfig describes a synthetic workload (see the paper's §VII-B
// datasets: permutation, gaussian, kaggle, xnli).
type TraceConfig = trace.Config

// Workload kind names accepted in TraceConfig.Kind.
const (
	TracePermutation = trace.KindPermutation
	TraceGaussian    = trace.KindGaussian
	TraceKaggle      = trace.KindKaggle
	TraceXNLI        = trace.KindXNLI
	TraceUniform     = trace.KindUniform
	TraceSequential  = trace.KindSequential
)

// GenerateTrace produces a synthetic access stream.
func GenerateTrace(cfg TraceConfig) ([]uint64, error) { return trace.Generate(cfg) }
