package wire

import (
	"context"
	"fmt"
	"sync"

	"dupserve/internal/db"
)

// Log shipping to a node replica: bench/plant.go is this file's one
// remaining caller, until the bench builds its plant with deploy. A shipped
// serving node holds no database.

// RegisterReplica exposes replica over s as a log-shipping target: TypeTxn
// applies one transaction and acks with the replica's resulting LSN,
// TypeLSN answers the current LSN. The handler is idempotent below the
// replica's LSN — a transaction the replica already holds (a retry whose
// original ack was lost with the connection) acks success instead of
// tripping the LSN-gap check, so at-least-once delivery over a flaky link
// converges instead of wedging.
func RegisterReplica(s *Server, replica *db.DB) {
	s.Handle(TypeTxn, func(payload []byte) ([]byte, error) {
		tx, err := DecodeTransaction(payload)
		if err != nil {
			return nil, err
		}
		if tx.LSN > replica.LSN() {
			if err := replica.Apply(tx); err != nil {
				return nil, err
			}
		}
		return EncodeUint(nil, uint64(replica.LSN())), nil
	})
	s.Handle(TypeLSN, func(payload []byte) ([]byte, error) {
		return EncodeUint(nil, uint64(replica.LSN())), nil
	})
}

// ReplicaClient fronts a remote replica as a db.Target: Apply ships the
// transaction as a TypeTxn frame and waits for the ack carrying the
// replica's LSN. Transport failures surface as transient errors, which
// db.StartReplicationTo parks on and retries in order — the networked
// equivalent of the local partition hold.
type ReplicaClient struct {
	c *Client

	mu      sync.Mutex
	lastLSN int64 // highest LSN the remote has acknowledged
}

// NewReplicaClient wraps c as a replication target.
func NewReplicaClient(c *Client) *ReplicaClient {
	return &ReplicaClient{c: c}
}

// Apply ships tx to the remote replica and records its acked LSN.
func (r *ReplicaClient) Apply(tx db.Transaction) error {
	resp, err := r.c.Call(context.Background(), TypeTxn, EncodeTransaction(nil, tx))
	if err != nil {
		return fmt.Errorf("wire: ship txn %d: %w", tx.LSN, err)
	}
	lsn, err := DecodeUint(resp)
	if err != nil {
		return fmt.Errorf("wire: txn %d ack: %w", tx.LSN, err)
	}
	r.note(int64(lsn))
	return nil
}

// LSN asks the remote replica for its LSN, falling back to the last acked
// value when the link is down — the replicator's catch-up filter and lag
// accounting keep working through an outage instead of reading zero and
// re-shipping the whole log.
func (r *ReplicaClient) LSN() int64 {
	resp, err := r.c.Call(context.Background(), TypeLSN, nil)
	if err == nil {
		if lsn, derr := DecodeUint(resp); derr == nil {
			r.note(int64(lsn))
			return int64(lsn)
		}
	}
	return r.acked()
}

// acked returns the highest LSN the remote replica has acknowledged or
// reported, without a round trip.
func (r *ReplicaClient) acked() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastLSN
}

// note records a remotely acknowledged LSN (monotonic).
func (r *ReplicaClient) note(lsn int64) {
	r.mu.Lock()
	if lsn > r.lastLSN {
		r.lastLSN = lsn
	}
	r.mu.Unlock()
}
