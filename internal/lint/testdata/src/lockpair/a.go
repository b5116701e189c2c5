// Fixture for the lockpair analyzer: scans over lock-CAS results must run
// to completion and record every won lock in a back-out set. The one real
// site it guards is Txn.lockBatch (internal/txn/stages.go); goodSwitchBreak
// is that function's shape, and the bad* functions are the ways its three
// former copies could (and did) go wrong.
package lockpair

type pending struct {
	Swapped bool
	Prev    uint64
	Err     error
}

type target struct{ off uint64 }

func releaseAll(ts []target) {}

func goodScan(pend []*pending, targets []target) []target {
	var acquired []target
	failed := -1
	for i, p := range pend {
		if p.Err != nil || !p.Swapped {
			if failed < 0 {
				failed = i
			}
			continue
		}
		acquired = append(acquired, targets[i])
	}
	if failed >= 0 {
		releaseAll(acquired)
		return nil
	}
	return acquired
}

func goodSwitchBreak(pend []*pending, targets []target) []target {
	var acquired []target
	for i, p := range pend {
		switch {
		case p.Err != nil:
			break // breaks the switch, not the scan: fine
		case p.Swapped:
			acquired = append(acquired, targets[i])
		}
	}
	return acquired
}

func badBreak(pend []*pending, targets []target) []target {
	var acquired []target
	for i, p := range pend {
		if p.Err != nil {
			break // want "early exit from a lock-CAS result scan"
		}
		if p.Swapped {
			acquired = append(acquired, targets[i])
		}
	}
	return acquired
}

func badReturn(pend []*pending, targets []target) []target {
	var acquired []target
	for i, p := range pend {
		if !p.Swapped {
			return nil // want "return inside a lock-CAS result scan"
		}
		acquired = append(acquired, targets[i])
	}
	return acquired
}

func badLabeledBreak(pend []*pending, targets []target) []target {
	var acquired []target
groups:
	for round := 0; round < 2; round++ {
		for i, p := range pend {
			switch {
			case p.Err != nil:
				break groups // want "early exit from a lock-CAS result scan"
			case p.Swapped:
				acquired = append(acquired, targets[i])
			}
		}
	}
	return acquired
}

func badNoRecord(pend []*pending) int {
	n := 0
	for _, p := range pend { // want "never records won locks"
		if p.Swapped {
			n++
		}
	}
	return n
}

func allowedBreak(pend []*pending, targets []target) []target {
	var acquired []target
	for i, p := range pend {
		if p.Err != nil {
			//drtmr:allow lockpair single-verb batch: nothing later in the batch to leak
			break
		}
		if p.Swapped {
			acquired = append(acquired, targets[i])
		}
	}
	return acquired
}

func missingReason(pend []*pending, targets []target) []target {
	var acquired []target
	for i, p := range pend {
		if p.Err != nil {
			break //drtmr:allow lockpair // want "early exit from a lock-CAS result scan" "missing the required reason"
		}
		if p.Swapped {
			acquired = append(acquired, targets[i])
		}
	}
	return acquired
}

// A labeled continue out to a group driver abandons the rest of the scan
// exactly like a break — the shape of the fallback's former per-node-group
// loop, where the scan ran inside a `groups:` loop over node batches.
func badLabeledContinue(groups [][]*pending, targets []target) []target {
	var acquired []target
groups:
	for _, pend := range groups {
		for i, p := range pend {
			if p.Err != nil {
				continue groups // want "early exit from a lock-CAS result scan"
			}
			if p.Swapped {
				acquired = append(acquired, targets[i])
			}
		}
	}
	return acquired
}

// The fallback.go discipline: failures set a flag, the scan completes, and
// the group loop is exited only AFTER the scan — unlabeled continue inside
// the scan and `break groups` outside it are both fine.
func goodFallbackShape(groups [][]*pending, targets []target) []target {
	var acquired []target
	lockFail := false
groups:
	for _, pend := range groups {
		var next []target
		for i, p := range pend {
			if p.Err != nil {
				lockFail = true
				continue // unlabeled: next result, still inside the scan
			}
			if p.Swapped {
				acquired = append(acquired, targets[i])
			} else {
				next = append(next, targets[i])
			}
		}
		if lockFail {
			break groups // after the scan completed: no leak
		}
		_ = next
	}
	return acquired
}

// Continue naming the scan loop's own label is a normal next-iteration.
func goodOwnLabelContinue(pend []*pending, targets []target) []target {
	var acquired []target
scan:
	for i, p := range pend {
		if p.Err != nil {
			continue scan
		}
		if p.Swapped {
			acquired = append(acquired, targets[i])
		}
	}
	return acquired
}
