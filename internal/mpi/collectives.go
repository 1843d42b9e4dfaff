package mpi

import (
	"fmt"
	"reflect"
)

// ReduceOp combines two values of the same type.
type ReduceOp func(a, b any) (any, error)

// numericOp lifts int/int64/float64 binary functions into a ReduceOp.
func numericOp(name string, fi func(a, b int64) int64, ff func(a, b float64) float64) ReduceOp {
	return func(a, b any) (any, error) {
		switch x := a.(type) {
		case int:
			y, ok := b.(int)
			if !ok {
				return nil, fmt.Errorf("mpi: %s: mixed types %T and %T", name, a, b)
			}
			return int(fi(int64(x), int64(y))), nil
		case int64:
			y, ok := b.(int64)
			if !ok {
				return nil, fmt.Errorf("mpi: %s: mixed types %T and %T", name, a, b)
			}
			return fi(x, y), nil
		case float64:
			y, ok := b.(float64)
			if !ok {
				return nil, fmt.Errorf("mpi: %s: mixed types %T and %T", name, a, b)
			}
			return ff(x, y), nil
		default:
			return nil, fmt.Errorf("mpi: %s: unsupported type %T", name, a)
		}
	}
}

// Sum is the built-in reduction over int, int64 and float64.
var Sum = numericOp("sum", func(a, b int64) int64 { return a + b },
	func(a, b float64) float64 { return a + b })

// requireIntra rejects collective calls on intercommunicators.
func (c *Comm) requireIntra(op string) error {
	if c.remote != nil {
		return fmt.Errorf("mpi: %s on an intercommunicator (Merge it first)", op)
	}
	return nil
}

// Bcast broadcasts *ptr from root to every rank along a binomial tree.
func (c *Comm) Bcast(ptr any, root int) error {
	if err := c.requireIntra("Bcast"); err != nil {
		return err
	}
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	tag := c.nextCollTag()
	size := c.Size()
	// The MPICH binomial tree on root-relative ranks: receive from the
	// parent (relative rank with its lowest set bit cleared), then fan out
	// to children at decreasing strides.
	vrank := (c.rank - root + size) % size
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			src := (c.rank - mask + size) % size
			if _, err := c.recvInternal(ptr, src, tag); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	val := reflect.ValueOf(ptr).Elem().Interface()
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < size {
			dst := (c.rank + mask) % size
			if err := c.send(val, dst, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reduce combines every rank's v with op; the result lands in *resultPtr on
// root (other ranks' resultPtr may be nil).
func (c *Comm) Reduce(v any, resultPtr any, op ReduceOp, root int) error {
	if err := c.requireIntra("Reduce"); err != nil {
		return err
	}
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	tag := c.nextCollTag()
	if c.rank == root {
		acc := v
		for i := 0; i < c.Size()-1; i++ {
			m, err := c.self.match(c.context(), AnySource, tag)
			if err != nil {
				return err
			}
			// Decode into a fresh value of the accumulator's type.
			ptr := reflect.New(reflect.TypeOf(acc))
			if err := decodeMessage(m, ptr.Interface()); err != nil {
				return err
			}
			if acc, err = op(acc, ptr.Elem().Interface()); err != nil {
				return err
			}
		}
		if resultPtr == nil {
			return fmt.Errorf("mpi: Reduce root needs a result pointer")
		}
		reflect.ValueOf(resultPtr).Elem().Set(reflect.ValueOf(acc))
		return nil
	}
	return c.send(v, root, tag)
}

// Allreduce is Reduce to rank 0 followed by Bcast.
func (c *Comm) Allreduce(v any, resultPtr any, op ReduceOp) error {
	if resultPtr == nil {
		return fmt.Errorf("mpi: Allreduce needs a result pointer")
	}
	if err := c.Reduce(v, resultPtr, op, 0); err != nil {
		return err
	}
	return c.Bcast(resultPtr, 0)
}

// Scatter distributes values[i] to rank i from root and returns the
// caller's element. On non-root ranks values is ignored.
func (c *Comm) Scatter(values []any, ptr any, root int) error {
	if err := c.requireIntra("Scatter"); err != nil {
		return err
	}
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	// Validate before reserving the collective tag: a rejected call must
	// not desynchronise the tag sequence against the other ranks.
	if c.rank == root && len(values) != c.Size() {
		return fmt.Errorf("mpi: Scatter needs %d values, got %d", c.Size(), len(values))
	}
	tag := c.nextCollTag()
	if c.rank == root {
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			if err := c.send(values[i], i, tag); err != nil {
				return err
			}
		}
		reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(values[root]))
		return nil
	}
	_, err := c.recvInternal(ptr, root, tag)
	return err
}

// recvInternal receives with an internal (possibly negative) tag.
func (c *Comm) recvInternal(ptr any, src, tag int) (Status, error) {
	m, err := c.self.match(c.context(), src, tag)
	if err != nil {
		return Status{}, err
	}
	if err := decodeMessage(m, ptr); err != nil {
		return Status{}, err
	}
	return Status{Tag: m.tag}, nil
}
