package models

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/tensor"
)

// appendContract reports how call, one of an op's derivations with the
// inputs bound, breaks the append contract: on a dst holding prefix with
// room to spare it must extend dst in place, leave prefix's elements as
// they were, and append exactly what it appends to nil.
func appendContract[T any](prefix []T, call func(dst []T) []T) error {
	fresh := call(nil)
	dst := make([]T, len(prefix), len(prefix)+len(fresh))
	copy(dst, prefix)
	got := call(dst)
	switch {
	case len(got) < len(prefix) || !reflect.DeepEqual(got[:len(prefix)], prefix):
		return errors.New("dropped or rewrote dst's elements")
	case !reflect.DeepEqual(dst, prefix):
		return errors.New("wrote into dst's elements")
	case &got[0] != &dst[0]:
		return errors.New("did not extend dst in place")
	case len(got)-len(prefix) != len(fresh) || len(fresh) > 0 && !reflect.DeepEqual(got[len(prefix):], fresh):
		return fmt.Errorf("appended %v to dst but %v to nil", got[len(prefix):], fresh)
	}
	return nil
}

// opContract checks both of op's derivations on the given inputs.
func opContract(op ops.Op, in []tensor.Meta) error {
	kernelPrefix := []kernels.Kernel{{Kind: kernels.KindMemcpyH2D, NBytes: 7}, {Kind: kernels.KindTrilFwd, B: 3, F: 5}}
	if err := appendContract(kernelPrefix, func(dst []kernels.Kernel) []kernels.Kernel {
		return op.AppendKernels(dst, in)
	}); err != nil {
		return fmt.Errorf("AppendKernels %w", err)
	}
	metaPrefix := []tensor.Meta{tensor.New(3, 5), tensor.NewTyped(tensor.Int64, 7)}
	if err := appendContract(metaPrefix, func(dst []tensor.Meta) []tensor.Meta {
		return op.AppendOutputs(dst, in)
	}); err != nil {
		return fmt.Errorf("AppendOutputs %w", err)
	}
	return nil
}

// TestOpsKeepAppendContract runs every node of every family, bound at
// two batches, through the append contract.
func TestOpsKeepAppendContract(t *testing.T) {
	for _, name := range allFamilies {
		m, err := Build(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.Graph.WithBatch(1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.Graph{m.Graph, v} {
			for _, n := range g.Nodes {
				if err := opContract(g.Op(&n), g.InputMetas(nil, g.Inputs(&n))); err != nil {
					t.Errorf("%s at batch %d: node %d (%s): %v", name, g.BatchSize(), n.ID, g.Op(&n).Name(), err)
				}
			}
		}
	}
}

// dropsDst breaks the append contract the way a return of a fresh slice
// would.
type dropsDst struct{ ops.Op }

func (d dropsDst) AppendKernels(_ []kernels.Kernel, in []tensor.Meta) []kernels.Kernel {
	return d.Op.AppendKernels(nil, in)
}

func (d dropsDst) AppendOutputs(_, in []tensor.Meta) []tensor.Meta {
	return d.Op.AppendOutputs(nil, in)
}

// TestAppendContractCatchesDroppedDst is the check's own control: an op
// that ignores dst fails it, with or without kernels.
func TestAppendContractCatchesDroppedDst(t *testing.T) {
	for _, tc := range []struct {
		op ops.Op
		in []tensor.Meta
	}{
		{ops.Linear{Out: 8}, []tensor.Meta{tensor.New(4, 16)}},
		{ops.View{}, []tensor.Meta{tensor.New(4, 2, 8)}},
	} {
		if err := opContract(tc.op, tc.in); err != nil {
			t.Fatalf("%s: %v", tc.op.Name(), err)
		}
		if err := opContract(dropsDst{tc.op}, tc.in); err == nil {
			t.Errorf("%s ignoring dst passed the contract", tc.op.Name())
		}
	}
}
