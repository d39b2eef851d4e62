package query

import "context"

// faultBatchIterator is the query-stage half of the chaos harness: it
// sits on top of the assembled pipeline and consults the engine's Fault
// hook before each batch, so tests can fail a query mid-stream at a
// chosen batch and assert the teardown path (typed trailer error,
// leak-free pullers, released admission ticket) behaves.
type faultBatchIterator struct {
	in    BatchIterator
	fault func(stage string) error
}

func (f *faultBatchIterator) Columns() []string { return f.in.Columns() }

func (f *faultBatchIterator) Next(ctx context.Context) (*Batch, error) {
	if err := f.fault("next"); err != nil {
		return nil, err
	}
	return f.in.Next(ctx)
}

func (f *faultBatchIterator) Close() error { return f.in.Close() }
