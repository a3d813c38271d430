// Package trace defines the MPI operation model that the whole tool stack
// shares: operation kinds, the blocking predicate b from Section 3.1 of the
// paper, per-process operation sequences, and matched traces that feed the
// wait-state transition system.
//
// An operation is identified by the pair (Proc, TS) — the process rank i and
// the local logical timestamp j — exactly as in the paper's set Op.
package trace

import (
	"fmt"
	"strconv"
)

// Kind enumerates the MPI operations the model distinguishes. The set covers
// everything the paper's blocking predicate b mentions plus the collectives
// and communicator operations the evaluation workloads use.
type Kind int

const (
	// Point-to-point, blocking.
	Send  Kind = iota // MPI_Send (standard mode; modelled blocking, Sec. 3.3)
	Ssend             // MPI_Ssend (synchronous, always blocking)
	Bsend             // MPI_Bsend (buffered, non-blocking per b)
	Rsend             // MPI_Rsend (ready, non-blocking per b)
	Recv              // MPI_Recv
	Probe             // MPI_Probe

	// Point-to-point, non-blocking.
	Isend  // MPI_Isend
	Issend // MPI_Issend
	Ibsend // MPI_Ibsend
	Irsend // MPI_Irsend
	Irecv  // MPI_Irecv
	Iprobe // MPI_Iprobe

	// Completion operations.
	Wait     // MPI_Wait
	Waitall  // MPI_Waitall
	Waitany  // MPI_Waitany
	Waitsome // MPI_Waitsome
	Test     // MPI_Test
	Testall  // MPI_Testall
	Testany  // MPI_Testany
	Testsome // MPI_Testsome

	// Combined send/receive; treated as a single call in deadlock reports
	// (paper footnote 1) but decomposed for matching.
	Sendrecv

	// Collectives (all modelled as synchronizing, Sec. 3.3).
	Barrier
	Bcast
	Reduce
	Allreduce
	Gather
	Allgather
	Scatter
	Alltoall
	Scan
	CommDup   // MPI_Comm_dup: collective over the communicator
	CommSplit // MPI_Comm_split: collective over the communicator

	// Termination. No transition rule applies to Finalize; it is the
	// well-defined terminal operation (Sec. 3.1).
	Finalize

	numKinds
)

var kindNames = [...]string{
	Send: "Send", Ssend: "Ssend", Bsend: "Bsend", Rsend: "Rsend",
	Recv: "Recv", Probe: "Probe",
	Isend: "Isend", Issend: "Issend", Ibsend: "Ibsend", Irsend: "Irsend",
	Irecv: "Irecv", Iprobe: "Iprobe",
	Wait: "Wait", Waitall: "Waitall", Waitany: "Waitany", Waitsome: "Waitsome",
	Test: "Test", Testall: "Testall", Testany: "Testany", Testsome: "Testsome",
	Sendrecv: "Sendrecv",
	Barrier:  "Barrier", Bcast: "Bcast", Reduce: "Reduce", Allreduce: "Allreduce",
	Gather: "Gather", Allgather: "Allgather", Scatter: "Scatter",
	Alltoall: "Alltoall", Scan: "Scan",
	CommDup: "Comm_dup", CommSplit: "Comm_split",
	Finalize: "Finalize",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) || kindNames[k] == "" {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Blocking is the predicate b : Op → {⊥, ⊤} of Section 3.1. It depends only
// on the operation kind. Standard-mode sends and all collectives are treated
// as blocking/synchronizing — the strict interpretation that lets the tool
// detect deadlocks that a buffering MPI implementation would hide.
func (k Kind) Blocking() bool {
	switch k {
	case Send, Ssend, Recv, Probe, Sendrecv,
		Wait, Waitall, Waitany, Waitsome,
		Barrier, Bcast, Reduce, Allreduce, Gather, Allgather,
		Scatter, Alltoall, Scan, CommDup, CommSplit:
		return true
	default:
		// Bsend, Rsend, all I* operations, the Test family, and Finalize.
		return false
	}
}

// IsSend reports whether the kind initiates a point-to-point send.
func (k Kind) IsSend() bool {
	switch k {
	case Send, Ssend, Bsend, Rsend, Isend, Issend, Ibsend, Irsend:
		return true
	}
	return false
}

// IsRecv reports whether the kind initiates a point-to-point receive.
// Probe/Iprobe count for wait-state purposes: a probe waits like a receive
// but does not consume the message (Rule 2 discussion in the paper).
func (k Kind) IsRecv() bool {
	switch k {
	case Recv, Irecv, Probe, Iprobe:
		return true
	}
	return false
}

// IsProbe reports whether the kind is a probe (matches like a receive but
// does not consume a message from the match queues).
func (k Kind) IsProbe() bool { return k == Probe || k == Iprobe }

// IsNonBlockingP2P reports whether the kind is a non-blocking point-to-point
// operation that produces a request.
func (k Kind) IsNonBlockingP2P() bool {
	switch k {
	case Isend, Issend, Ibsend, Irsend, Irecv:
		return true
	}
	return false
}

// IsCompletion reports whether the kind completes requests
// (the MPI_Wait/MPI_Test families).
func (k Kind) IsCompletion() bool {
	switch k {
	case Wait, Waitall, Waitany, Waitsome, Test, Testall, Testany, Testsome:
		return true
	}
	return false
}

// IsWaitAnySemantics reports whether a completion operation needs only one
// of its requests to be matched (Rule 4-I) rather than all (Rule 4-II).
func (k Kind) IsWaitAnySemantics() bool { return k == Waitany || k == Waitsome }

// IsCollective reports whether the kind is collective over a communicator.
func (k Kind) IsCollective() bool {
	switch k {
	case Barrier, Bcast, Reduce, Allreduce, Gather, Allgather,
		Scatter, Alltoall, Scan, CommDup, CommSplit:
		return true
	}
	return false
}

// AnySource is the wildcard source value (MPI_ANY_SOURCE).
const AnySource = -1

// AnyTag is the wildcard tag value (MPI_ANY_TAG).
const AnyTag = -1

// CommID identifies a communicator. CommWorld is predefined; duplicated and
// split communicators receive fresh IDs from the runtime.
type CommID int32

// CommWorld is the identifier of MPI_COMM_WORLD.
const CommWorld CommID = 0

// ReqID identifies an MPI request local to a process. Zero is "no request".
type ReqID int32

// Ref identifies an operation (i, j): process rank and local timestamp.
type Ref struct {
	Proc int
	TS   int
}

func (r Ref) String() string { return fmt.Sprintf("o(%d,%d)", r.Proc, r.TS) }

// Op is one recorded MPI operation. P2P fields are meaningful only for
// send/receive/probe kinds; Reqs only for completion kinds; Req only for
// non-blocking p2p kinds.
type Op struct {
	Proc int // rank i
	TS   int // local logical timestamp j
	Kind Kind

	// Point-to-point fields.
	Peer int    // destination for sends, source for receives (AnySource allowed)
	Tag  int    // message tag (AnyTag allowed on receives)
	Comm CommID // communicator

	// PeerWorld is Peer translated to a world rank (AnySource for wildcard
	// receives). The runtime fills it in, playing the role of MUST's
	// communicator tracking; tool nodes use it to route messages without
	// having to replicate full group knowledge on every node.
	PeerWorld int

	// SelfGroup is the issuing rank's group rank within Comm (for
	// point-to-point operations); the receive side matches sends by group
	// rank. Filled by the runtime alongside PeerWorld.
	SelfGroup int

	// Request produced by a non-blocking p2p operation.
	Req ReqID

	// Requests consumed by a completion operation, in argument order.
	Reqs []ReqID

	// ActualSrc is the source the MPI implementation actually matched for a
	// completed wildcard receive (observed from the returned status). It is
	// AnySource while unknown, i.e. for receives that never completed.
	ActualSrc int

	// SendrecvPeer is the receive-side source of an MPI_Sendrecv whose
	// send side is described by Peer/Tag. Unused otherwise.
	SendrecvPeer int
	// SendrecvTag is the receive-side tag of an MPI_Sendrecv.
	SendrecvTag int

	// File and Line locate the application call site when call-site
	// tracking is enabled (MUST-style reports point at source lines).
	File string
	Line int
}

// Describe renders the operation with its call site when available — the
// form used in wait-for conditions and deadlock reports.
func (o *Op) Describe() string { return string(o.AppendDescribe(nil)) }

// AppendDescribe appends Describe's rendering to b: the form a report
// builder uses to describe many operations into one buffer.
func (o *Op) AppendDescribe(b []byte) []byte {
	b = o.appendString(b)
	if o.File != "" {
		b = append(b, " at "...)
		b = append(b, o.File...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(o.Line), 10)
	}
	return b
}

// Ref returns the operation's (i, j) identifier.
func (o *Op) Ref() Ref { return Ref{Proc: o.Proc, TS: o.TS} }

// Blocking applies the predicate b to the operation.
func (o *Op) Blocking() bool { return o.Kind.Blocking() }

func (o *Op) String() string { return string(o.appendString(nil)) }

// appendString appends String's rendering to b:
// Send(to:3,tag:4)@(1,2), Recv(from:ANY,tag:-1)@(1,2),
// Waitall(reqs:[1 2])@(1,2), Barrier@(1,2).
func (o *Op) appendString(b []byte) []byte {
	b = append(b, o.Kind.String()...)
	switch {
	case o.Kind.IsSend():
		b = append(b, "(to:"...)
		b = strconv.AppendInt(b, int64(o.Peer), 10)
		b = appendTag(b, o.Tag)
	case o.Kind.IsRecv():
		b = append(b, "(from:"...)
		if o.Peer == AnySource {
			b = append(b, "ANY"...)
		} else {
			b = strconv.AppendInt(b, int64(o.Peer), 10)
		}
		b = appendTag(b, o.Tag)
	case o.Kind.IsCompletion():
		b = append(b, "(reqs:["...)
		for i, rq := range o.Reqs {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(rq), 10)
		}
		b = append(b, "])"...)
	}
	b = append(b, "@("...)
	b = strconv.AppendInt(b, int64(o.Proc), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(o.TS), 10)
	return append(b, ')')
}

func appendTag(b []byte, tag int) []byte {
	b = append(b, ",tag:"...)
	b = strconv.AppendInt(b, int64(tag), 10)
	return append(b, ')')
}
