// Fixture for the doorbell analyzer: raw single-verb QP calls where an
// rdma.Batch is in scope regress the doorbell-batching latency win.
package doorbell

type QP struct{}

func (q *QP) Read(off uint64, n int, buf []byte) ([]byte, error) { return buf, nil }
func (q *QP) Write(off uint64, data []byte) error                { return nil }
func (q *QP) Write64(off, v uint64) error                        { return nil }
func (q *QP) CAS(off, old, new uint64) (uint64, bool, error)     { return 0, false, nil }

type Pending struct {
	Data    []byte
	Swapped bool
	Err     error
}

type Batch struct{}

func (b *Batch) PostRead(q *QP, off uint64, n int) *Pending   { return &Pending{} }
func (b *Batch) PostCAS(q *QP, off, old, new uint64) *Pending { return &Pending{} }
func (b *Batch) Execute() error                               { return nil }

func newBatch() *Batch { return &Batch{} }

func execBatch(b *Batch) error { return b.Execute() }

func okNoBatchInScope(q *QP) {
	_, _, _ = q.CAS(8, 0, 1) // no batch in this function: legitimate
}

func badMixed(q *QP) {
	b := newBatch()
	b.PostRead(q, 0, 24)
	_, _ = q.Read(8, 24, nil) // want "single-verb QP.Read while an rdma.Batch is in scope"
	_ = q.Write64(16, 1)      // want "single-verb QP.Write64"
	_, _, _ = q.CAS(24, 0, 1) // want "single-verb QP.CAS"
	_ = b.Execute()
}

func badBatchParam(q *QP, b *Batch) {
	b.PostCAS(q, 8, 0, 1)
	_ = q.Write(16, nil) // want "single-verb QP.Write"
}

func okBeforeBatchExists(q *QP) {
	_, _, _ = q.CAS(8, 0, 1) // posted before any batch exists: fine
	b := newBatch()
	b.PostCAS(q, 8, 0, 1)
	_ = b.Execute()
}

func allowedSingleVerb(q *QP) {
	b := newBatch()
	b.PostCAS(q, 8, 0, 1)
	_ = b.Execute()
	//drtmr:allow doorbell last-resort header re-read, off the batched phases
	_, _ = q.Read(8, 24, nil)
}

func missingReason(q *QP) {
	b := newBatch()
	_ = b.Execute()
	_, _, _ = q.CAS(8, 0, 1) //drtmr:allow doorbell // want "single-verb QP.CAS" "missing the required reason"
}

func badBackToBack(q *QP) {
	lock := newBatch()
	lock.PostCAS(q, 8, 0, 1)
	_ = execBatch(lock)
	hdr := newBatch()
	hdr.PostRead(q, 0, 24)
	_ = execBatch(hdr) // want "back-to-back doorbells with no data dependency: fuse or justify"
}

func badErrIsNotData(q *QP) {
	payload := newBatch()
	p := payload.PostRead(q, 0, 24)
	_ = execBatch(payload)
	publish := newBatch()
	if p.Err == nil {
		publish.PostCAS(q, 8, 0, 1)
	}
	_ = execBatch(publish) // want "back-to-back doorbells with no data dependency"
}

func okDependsOnResult(q *QP) {
	lock := newBatch()
	p := lock.PostCAS(q, 8, 0, 1)
	_ = execBatch(lock)
	retry := newBatch()
	if !p.Swapped {
		retry.PostCAS(q, 8, 0, 1)
	}
	_ = execBatch(retry) // the second batch is built from the first's results
	third := newBatch()
	_ = execBatch(third) // want "back-to-back doorbells with no data dependency"
}

func okFused(q *QP) {
	b := newBatch()
	b.PostCAS(q, 8, 0, 1)
	hdr := b.PostRead(q, 0, 24) // rides the lock doorbell
	_ = execBatch(b)
	_ = hdr.Data
}

func allowedBackToBack(q *QP) {
	a := newBatch()
	_ = execBatch(a)
	b := newBatch()
	//drtmr:allow doorbell the second batch targets memory the first batch's remote CPU handler allocates
	_ = execBatch(b)
}
