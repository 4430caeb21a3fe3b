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
type DType int

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

// Meta describes one tensor: its shape and element type. The zero value
// is a scalar float32.
type Meta struct {
	Shape []int64
	DType DType
}

// New returns a float32 tensor with the given shape.
func New(shape ...int64) Meta {
	return Meta{Shape: shape, DType: Float32}
}

// NewTyped returns a tensor of dtype dt with the given shape.
func NewTyped(dt DType, shape ...int64) Meta {
	return Meta{Shape: shape, DType: dt}
}

// Rank returns the number of dimensions.
func (m Meta) Rank() int { return len(m.Shape) }

// Dim returns dimension i, supporting negative indices Python-style.
func (m Meta) Dim(i int) int64 {
	if i < 0 {
		i += len(m.Shape)
	}
	if i < 0 || i >= len(m.Shape) {
		panic(fmt.Sprintf("tensor: dim %d out of range for rank %d", i, len(m.Shape)))
	}
	return m.Shape[i]
}

// Numel returns the number of elements.
func (m Meta) Numel() int64 {
	n := int64(1)
	for _, d := range m.Shape {
		n *= d
	}
	return n
}

// Bytes returns the storage size in bytes.
func (m Meta) Bytes() int64 {
	return m.Numel() * m.DType.Size()
}

// WithBatch returns a copy of m with dimension 0 replaced by b. It is the
// primitive behind the execution-graph "resize" transform (changing batch
// size without re-capturing the graph). Scalars are returned unchanged.
func (m Meta) WithBatch(b int64) Meta {
	if len(m.Shape) == 0 {
		return m
	}
	shape := append([]int64(nil), m.Shape...)
	shape[0] = b
	return Meta{Shape: shape, DType: m.DType}
}

// String renders like "float32[2048, 64]".
func (m Meta) String() string {
	parts := make([]string, len(m.Shape))
	for i, d := range m.Shape {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf("%s[%s]", m.DType, strings.Join(parts, ", "))
}
