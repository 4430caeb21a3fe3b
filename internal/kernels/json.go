package kernels

import (
	"encoding/json"
	"fmt"
)

// wireKernel is the tagged-union JSON form of a Kernel, used when
// exporting execution graphs.
type wireKernel struct {
	Type string          `json:"type"`
	Args json.RawMessage `json:"args"`
}

// MarshalKernel encodes k as a tagged JSON object.
func MarshalKernel(k Kernel) ([]byte, error) {
	var (
		typ string
		val any
	)
	switch kk := k.(type) {
	case GEMM:
		typ, val = "gemm", kk
	case Embedding:
		typ, val = "embedding", kk
	case Concat:
		typ, val = "concat", kk
	case Memcpy:
		typ, val = "memcpy", kk
	case Transpose:
		typ, val = "transpose", kk
	case Tril:
		typ, val = "tril", kk
	case Elementwise:
		typ, val = "elementwise", kk
	case Conv:
		typ, val = "conv", kk
	case BatchNorm:
		typ, val = "batchnorm", kk
	default:
		return nil, fmt.Errorf("kernels: cannot marshal kernel type %T", k)
	}
	args, err := json.Marshal(val)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireKernel{Type: typ, Args: args})
}
