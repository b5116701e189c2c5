package txn

import (
	"encoding/binary"

	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
)

// Insert/delete shipping (§4.3): structural index mutations are not
// expressible as one-sided verbs, so they travel to the host machine with a
// SEND and execute there inside HTM transactions (the memstore's
// insert/delete paths; cluster.Machine.Call runs them inline). Replication
// of the mutation itself rides the coordinator's R.1 log entries, not the
// RPC.

// RPC kinds (cluster reserves 0x10 for recovery redo).
const (
	rpcInsert = 0x20
	rpcDelete = 0x21
)

// registerRPC installs the host-side handlers on this engine's machine.
func (e *Engine) registerRPC() {
	e.M.RegisterHandler(rpcInsert, func(from rdma.NodeID, body []byte) []byte {
		if len(body) < 19 {
			return rpcFail()
		}
		table := memstore.TableID(body[0])
		seq := binary.LittleEndian.Uint64(body[1:9])
		key := binary.LittleEndian.Uint64(body[9:17])
		vlen := int(binary.LittleEndian.Uint16(body[17:19]))
		if len(body) < 19+vlen {
			return rpcFail()
		}
		tbl := e.M.Store.Table(table)
		if tbl == nil {
			return rpcFail()
		}
		off, err := tbl.InsertWithSeq(key, body[19:19+vlen], seq)
		if err != nil {
			// Duplicate key: resolve to the existing record so the
			// coordinator can still stamp it (idempotent replay).
			if existing, ok := tbl.Lookup(key); ok {
				off = existing
			} else {
				return rpcFail()
			}
		}
		out := make([]byte, 9)
		out[0] = 1
		binary.LittleEndian.PutUint64(out[1:9], off)
		return out
	})
	e.M.RegisterHandler(rpcDelete, func(from rdma.NodeID, body []byte) []byte {
		if len(body) < 9 {
			return rpcFail()
		}
		table := memstore.TableID(body[0])
		key := binary.LittleEndian.Uint64(body[1:9])
		tbl := e.M.Store.Table(table)
		if tbl == nil {
			return rpcFail()
		}
		_ = tbl.Delete(key) // missing key: already-deleted replay, fine
		return []byte{1}
	})
}

func rpcFail() []byte { return []byte{0} }

// rpcInsert ships an insert to the host machine, returning the new record's
// offset.
func (w *Worker) rpcInsert(node rdma.NodeID, table memstore.TableID, shard cluster.ShardID, key uint64, value []byte, seq uint64) (uint64, bool) {
	_ = shard // shard travels in the R.1 log records, not the RPC
	body := make([]byte, 19+len(value))
	body[0] = uint8(table)
	binary.LittleEndian.PutUint64(body[1:9], seq)
	binary.LittleEndian.PutUint64(body[9:17], key)
	binary.LittleEndian.PutUint16(body[17:19], uint16(len(value)))
	copy(body[19:], value)
	reply, err := w.E.M.Call(w.QP(node), rpcInsert, body)
	if err != nil || len(reply) < 9 || reply[0] != 1 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(reply[1:9]), true
}

// rpcDelete ships a delete to the host machine.
func (w *Worker) rpcDelete(node rdma.NodeID, table memstore.TableID, key uint64) {
	body := make([]byte, 9)
	body[0] = uint8(table)
	binary.LittleEndian.PutUint64(body[1:9], key)
	_, _ = w.E.M.Call(w.QP(node), rpcDelete, body)
}
