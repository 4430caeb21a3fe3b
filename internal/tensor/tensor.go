// Package tensor provides the lightweight tensor *metadata* the execution
// graph and kernel parameter computations are built from. Performance
// modeling never needs element values — only shapes, dtypes, and byte
// counts — so a tensor here is a shape descriptor, mirroring what the
// paper's execution-graph observer records about each op's inputs and
// outputs.
package tensor

import (
	"fmt"
	"strings"
)

// DType enumerates the element types that appear in DLRM and the CV/NLP
// models we build.
type DType uint8

// Supported element types.
const (
	Float32 DType = iota
	Float16
	Int64
	Int32
)

// Size returns the element size in bytes.
func (d DType) Size() int64 {
	switch d {
	case Float32, Int32:
		return 4
	case Float16:
		return 2
	case Int64:
		return 8
	}
	panic(fmt.Sprintf("tensor: unknown dtype %d", int(d)))
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float16:
		return "float16"
	case Int64:
		return "int64"
	case Int32:
		return "int32"
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// MaxRank is the highest rank a Meta holds: no op builds a tensor of
// more than four dimensions (NCHW).
const MaxRank = 4

// Meta describes one tensor: its shape and element type. It is a value
// of fixed size — the dimensions sit in an array, not a slice — so
// copying a Meta copies its shape and a shape table is one allocation
// however many tensors it describes. Dimensions past the rank are zero,
// so two metas of the same shape and dtype are ==. The zero value is a
// scalar float32.
type Meta struct {
	dims  [MaxRank]int64
	rank  uint8
	DType DType
}

// New returns a float32 tensor with the given shape.
func New(shape ...int64) Meta {
	return NewTyped(Float32, shape...)
}

// NewTyped returns a tensor of dtype dt with the given shape. It panics
// on a shape of more than MaxRank dimensions: slicing the dims past
// their array does.
func NewTyped(dt DType, shape ...int64) Meta {
	m := Meta{rank: uint8(len(shape)), DType: dt}
	copy(m.dims[:len(shape)], shape)
	return m
}

// Rank returns the number of dimensions.
func (m Meta) Rank() int { return int(m.rank) }

// Dim returns dimension i, supporting negative indices Python-style.
func (m Meta) Dim(i int) int64 {
	return m.dims[m.axis(i)]
}

// axis makes a dimension index non-negative and checks it.
func (m Meta) axis(i int) int {
	if i < 0 {
		i += int(m.rank)
	}
	if i < 0 || i >= int(m.rank) {
		panic(fmt.Sprintf("tensor: dim %d out of range for rank %d", i, m.rank))
	}
	return i
}

// Numel returns the number of elements.
func (m Meta) Numel() int64 {
	n := int64(1)
	for _, d := range m.dims[:m.rank] {
		n *= d
	}
	return n
}

// Bytes returns the storage size in bytes.
func (m Meta) Bytes() int64 {
	return m.Numel() * m.DType.Size()
}

// WithDim returns m with dimension i (negative indices as in Dim)
// replaced by n.
func (m Meta) WithDim(i int, n int64) Meta {
	m.dims[m.axis(i)] = n
	return m
}

// WithBatch returns m with dimension 0 replaced by b. It is the
// primitive behind the execution-graph "resize" transform (changing
// batch size without re-capturing the graph). Scalars are returned
// unchanged.
func (m Meta) WithBatch(b int64) Meta {
	if m.rank == 0 {
		return m
	}
	return m.WithDim(0, b)
}

// String renders like "float32[2048, 64]".
func (m Meta) String() string {
	return m.DType.String() + strings.ReplaceAll(fmt.Sprint(m.dims[:m.rank]), " ", ", ")
}
