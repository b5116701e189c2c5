// Fixture for the htmregion analyzer: operations that abort or are unsound
// inside an htmBegin/htmEnd bracket.
package htmregion

type mutex struct{}

func (m *mutex) Lock()   {}
func (m *mutex) Unlock() {}

type worker struct {
	ch  chan int
	mu  mutex
	buf []int
}

func (w *worker) htmBegin() {}
func (w *worker) htmEnd()   {}
func (w *worker) yield()    {}
func (w *worker) await()    {}

var shared []int

func ok(w *worker) {
	w.ch <- 1 // outside any region: fine
	w.yield()
	w.htmBegin()
	x := 1
	_ = x
	w.htmEnd()
	w.yield() // region closed: fine
}

func badYield(w *worker) {
	w.htmBegin()
	defer w.htmEnd()
	w.yield() // want "yield or blocking wait cannot preserve speculative hardware state"
}

func badAwait(w *worker) {
	w.htmBegin()
	w.await() // want "yield or blocking wait"
	w.htmEnd()
}

func badChan(w *worker) {
	w.htmBegin()
	w.ch <- 1 // want "channel send inside an HTM region"
	<-w.ch    // want "channel receive inside an HTM region"
	w.htmEnd()
}

func badSelect(w *worker) {
	w.htmBegin()
	select { // want "select inside an HTM region"
	default:
	}
	w.htmEnd()
}

func badMutex(w *worker) {
	w.htmBegin()
	w.mu.Lock()   // want "mutex Lock inside an HTM region"
	w.mu.Unlock() // want "mutex Unlock inside an HTM region"
	w.htmEnd()
}

func badGo(w *worker) {
	w.htmBegin()
	go w.yield() // want "goroutine launch inside an HTM region"
	w.htmEnd()
}

func badAppend(w *worker) {
	local := make([]int, 0, 4)
	w.htmBegin()
	local = append(local, 1)   // function-local: fine
	w.buf = append(w.buf, 1)   // want "append into shared state"
	shared = append(shared, 1) // want "append into shared state"
	w.htmEnd()
	_ = local
}

var table = map[int]int{}

func badMapGrow(w *worker) {
	local := map[int]int{}
	w.htmBegin()
	local[1] = 1 // function-local map: fine
	table[1] = 1 // want "map write into shared state"
	w.htmEnd()
	_ = local
}

func badInBranch(w *worker, cond bool) {
	w.htmBegin()
	if cond {
		w.yield() // want "yield or blocking wait"
	}
	w.htmEnd()
}

//drtmr:htmbody runs inside badHelperRegion's bracket
func regionBody(w *worker) {
	w.yield() // want "yield or blocking wait"
}

func helperOutsideRegion(w *worker) {
	w.yield() // not a region body: fine
}

func allowedYield(w *worker) {
	w.htmBegin()
	//drtmr:allow htmregion deliberately trips the runtime yield-in-HTM assert
	w.yield()
	w.htmEnd()
}

func missingReason(w *worker) {
	w.htmBegin()
	w.yield() //drtmr:allow htmregion // want "yield or blocking wait" "missing the required reason"
	w.htmEnd()
}

func badFuncLit(w *worker) func() {
	return func() {
		w.htmBegin()
		defer w.htmEnd()
		w.yield() // want "yield or blocking wait"
	}
}
