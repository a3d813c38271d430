package tbon

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"dwst/internal/collmatch"
	"dwst/internal/dws"
	"dwst/internal/event"
	"dwst/internal/fault"
	"dwst/internal/wire"
)

// This file is the payload codec of the TCP transport: the typed bodies
// that travel inside internal/wire frames, serialized as self-contained
// gob blobs. Self-contained matters: the wire-level fault proxy drops
// whole frames, so no frame may depend on gob type state transmitted in an
// earlier one — every payload re-encodes its type descriptions. That costs
// bytes on the hot path the channel transport never pays, which is one of
// the reasons the channel transport remains the default.
//
// Every tool message type that can cross a process boundary is registered
// here; an unregistered type surfaces as a codec error (counted, link
// degraded) rather than a panic.

// wireHello is the worker's handshake: who it is and which incarnation of
// that worker slot it claims. Incarnation 0 asks the coordinator to assign
// a fresh one (a new process); a reconnecting live worker presents the
// incarnation it was assigned, and anything stale is fenced.
type wireHello struct {
	Worker      int
	Incarnation uint64

	// Resume is the coordinator-issued one-shot recovery token of a
	// supervised respawn. A fresh process presenting a valid token is
	// re-admitted under a new incarnation with journal-backed replay
	// instead of being fenced.
	Resume string
}

// wireWelcome is the coordinator's handshake reply. A rejected hello
// carries the reason; an accepted one carries the assigned incarnation and
// the full tree configuration, so a worker process needs nothing but the
// coordinator address and its worker id.
type wireWelcome struct {
	OK     bool
	Reason string

	Incarnation uint64
	Leaves      int
	FanIn       int
	EventBuf    int
	Workers     int

	KeepAlive time.Duration
	Budget    time.Duration

	// MemBudget is the tool-plane byte budget each worker process applies
	// to its own buffers (see Config.MemBudget).
	MemBudget int64

	// LeafGids maps first-layer index to current global id. The two drift
	// apart once a supervised respawn re-admits a worker's leaves under
	// fresh gids; a (re)joining worker must build its topology against the
	// coordinator's current view or its frames would address retired ids.
	LeafGids []int
}

// wireData is one reliable-layer frame crossing a process boundary: the
// sequenced link message, plus the envelope metadata the receiving queue
// needs. Rank events (Key.Class == fault.RankLink) carry a wireRank.
type wireData struct {
	From  int // envelope.from (sender index or rank)
	To    int // linkKey.to
	FromG int // linkKey.from
	Class fault.Class
	Seq   uint64
	Msg   any
}

// wireRank is an application event injected into a remote first-layer
// node, riding a sequenced RankLink frame.
type wireRank struct {
	Rank int
	Ev   event.Event
}

// wireAck is a cumulative acknowledgement for one directed link, routed to
// the process owning the link's sender.
type wireAck struct {
	To    int // linkKey.to
	FromG int // linkKey.from
	Class fault.Class
	UpTo  uint64
}

// wireStats is the worker's report of its outstanding work: envelopes not
// yet retired and frames not yet acknowledged. The coordinator counts the
// worker idle from a (0, 0) report until the next frame either way.
type wireStats struct {
	Worker   int
	Work     uint64
	InFlight uint64
}

// wireDown tells a worker that first-layer nodes were spliced out of the
// run (their owner degraded past budget): drop transport links to them so
// retransmission stops and in-flight accounting can drain.
type wireDown struct {
	Gids []int
}

// wireRecover is one chunk of the supervised-respawn recovery stream: the
// journaled input payloads (encoded wireData blobs) for one first-layer
// leaf, shipped coordinator → worker right after the resume handshake and
// before any live frame. Last marks the final chunk of the whole shipment;
// the worker replies with wireRecoverDone once replay finishes.
type wireRecover struct {
	Leaf     int      // first-layer index (gids in payloads are stale)
	Payloads [][]byte // encoded wireData blobs, per-origin-link FIFO order
	Last     bool
}

// wireRecoverDone is the worker's replay completion report.
type wireRecoverDone struct {
	Worker   int
	Replayed uint64 // journal entries replayed into fresh node state
	Nanos    int64  // wall time spent replaying
}

// wireRespawn tells surviving workers that a respawned worker's leaves
// were re-admitted under fresh gids: re-key topology placeholders and
// migrate unacknowledged frames onto the fresh links.
type wireRespawn struct {
	Leaves  []int // first-layer indices
	NewGids []int // parallel: fresh gid per leaf
}

// Counters are the tool-plane counters of one process or, folded, of a whole
// run: Tree.Counters reads this process's, a worker ships its own in its
// WorkerFinal, and the run report and the stats JSON embed the fold of all of
// them (the JSON tags are the stats schema's).
type Counters struct {
	// Retransmits and AbandonedFrames count reliable-transport activity on
	// tool links (zero without a fault plan or TCP fabric).
	Retransmits     uint64 `json:"retransmits"`
	AbandonedFrames uint64 `json:"abandoned_frames"`
	// Reconnects, CodecErrors and BytesOnWire are TCP-fabric counters (zero
	// on the channel transport): accepted worker reconnections, malformed
	// or unencodable wire payloads, and total bytes moved on the wire.
	Reconnects  uint64 `json:"reconnects"`
	CodecErrors uint64 `json:"codec_errors"`
	BytesOnWire uint64 `json:"bytes_on_wire"`
	// Recoveries counts crashed first-layer tool nodes that were respawned
	// and rebuilt exactly by journal replay (fault plan with Recover).
	Recoveries int `json:"recoveries"`
	// WorkerRespawns counts worker processes re-admitted through the
	// supervised-respawn handshake (TCP fabric with recovery on), and
	// ShippedJournalEntries the coordinator-journaled inputs shipped to
	// those fresh incarnations for replay.
	WorkerRespawns        uint64 `json:"worker_respawns"`
	ShippedJournalEntries uint64 `json:"shipped_journal_entries"`
	// Resource-governor accounting: MemHighWater is the peak resident
	// tool-plane buffer bytes of any single process and OverflowEvents
	// counts budget-exhausted admissions. QueueDepthHW / QueueBytesHW are
	// per-link-class (up/down/peer/wire) high-water marks. HeldWaits counts
	// the times a rank's Enter event parked in the in-process intake hold
	// (intake.go); TCP-hosted ranks are never held.
	MemHighWater   int64            `json:"mem_high_water,omitempty"`
	OverflowEvents uint64           `json:"overflow_events,omitempty"`
	HeldWaits      uint64           `json:"held_waits,omitempty"`
	QueueDepthHW   map[string]int64 `json:"queue_depth_hw,omitempty"`
	QueueBytesHW   map[string]int64 `json:"queue_bytes_hw,omitempty"`
}

// Fold merges another process's counters into c: event counts add up,
// high-water marks keep the worst single process.
func (c *Counters) Fold(o Counters) {
	c.Retransmits += o.Retransmits
	c.AbandonedFrames += o.AbandonedFrames
	c.Reconnects += o.Reconnects
	c.CodecErrors += o.CodecErrors
	c.BytesOnWire += o.BytesOnWire
	c.Recoveries += o.Recoveries
	c.WorkerRespawns += o.WorkerRespawns
	c.ShippedJournalEntries += o.ShippedJournalEntries
	c.OverflowEvents += o.OverflowEvents
	c.HeldWaits += o.HeldWaits
	if o.MemHighWater > c.MemHighWater {
		c.MemHighWater = o.MemHighWater
	}
	c.QueueDepthHW = foldClassHW(c.QueueDepthHW, o.QueueDepthHW)
	c.QueueBytesHW = foldClassHW(c.QueueBytesHW, o.QueueBytesHW)
}

// foldClassHW merges per-link-class high-water maps by max (nil-safe).
func foldClassHW(dst, src map[string]int64) map[string]int64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]int64, len(src))
	}
	for k, v := range src {
		if v > dst[k] {
			dst[k] = v
		}
	}
	return dst
}

// WorkerFinal is a worker's terminal statistics report, delivered on
// shutdown and merged into the run result by the coordinator.
type WorkerFinal struct {
	Worker          int
	MsgStats        dws.Stats
	WindowHighWater int
	Counters
}

func init() {
	// Envelope bodies.
	gob.Register(wireHello{})
	gob.Register(wireWelcome{})
	gob.Register(wireData{})
	gob.Register(wireRank{})
	gob.Register(wireAck{})
	gob.Register(wireStats{})
	gob.Register(wireDown{})
	gob.Register(wireRecover{})
	gob.Register(wireRecoverDone{})
	gob.Register(wireRespawn{})
	gob.Register(WorkerFinal{})

	// Tool messages that travel as wireData.Msg (and inside dws.Batch).
	gob.Register(dws.PassSend{})
	gob.Register(dws.RecvActive{})
	gob.Register(dws.RecvActiveAck{})
	gob.Register(dws.Batch{})
	gob.Register(dws.Ping{})
	gob.Register(dws.Pong{})
	gob.Register(dws.RequestConsistentState{})
	gob.Register(dws.AckConsistentState{})
	gob.Register(dws.RequestWaits{})
	gob.Register(dws.AbortSnapshot{})
	gob.Register(dws.PeerDown{})
	gob.Register(dws.RankDown{})
	gob.Register(dws.WaitReport{})
	gob.Register(collmatch.Ready{})
	gob.Register(collmatch.Member{})
	gob.Register(collmatch.Ack{})
	gob.Register(collmatch.Mismatch{})
	gob.Register(collmatch.Resync{})
	gob.Register(event.Event{})
}

// encodePayload serializes one payload body as a self-contained gob blob.
func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	if buf.Len() > wire.MaxPayload {
		return nil, fmt.Errorf("tbon: payload %d bytes exceeds frame max", buf.Len())
	}
	return buf.Bytes(), nil
}

// decodePayload deserializes one payload blob. Gob decoding returns errors
// on malformed input (it never panics), and the frame layer already
// bounded the input size, so a hostile payload costs at most one bounded
// allocation and an error.
func decodePayload(b []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}
