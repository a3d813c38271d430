// Package event defines the PMPI-analogue event stream between application
// processes and the tool. The simulator emits one Enter event per MPI call
// (before the call may block — deadlocked calls are therefore visible) and
// one Status event per resolved wildcard receive, which is how the tool
// observes the matching decisions of the MPI implementation (paper Sec. 2:
// "we use return values of MPI calls to observe the interleaving").
//
// Events of one rank form a FIFO stream; the Status event of an operation
// always follows its Enter event in that stream.
package event

import "dwst/internal/trace"

// Type discriminates event kinds.
type Type int

const (
	// Enter records that an MPI call was issued. Op carries the full call
	// descriptor with its (Proc, TS) identity.
	Enter Type = iota
	// Status reveals the matching decision for a wildcard receive (blocking
	// receive, or non-blocking receive at its completing operation): the
	// operation (Proc, TS) received from source Src.
	Status
	// Done records that the rank returned from its program function after
	// MPI_Finalize. It lets the tool distinguish "no events because the app
	// finished" from "no events because the app hangs".
	Done
	// CommInfo reveals the communicator a completed MPI_Comm_dup or
	// MPI_Comm_split created for this rank: operation (Proc, TS) produced
	// communicator Comm. Like Status, it trails the call's Enter event.
	CommInfo
	// RankDown records that rank Proc crashed (its goroutine exited
	// without MPI_Finalize). TS carries the number of MPI calls the rank
	// completed before dying. It is the rank's last event. Its value skips
	// 4, a retired event type, so recorded traces keep reading back.
	RankDown Type = iota + 1
)

// Event is one element of a rank's event stream.
type Event struct {
	Type Type
	Op   trace.Op     // Enter only
	Proc int          // Status/Done/CommInfo: rank
	TS   int          // Status/CommInfo: timestamp of the resolved call
	Src  int          // Status: actual source
	Comm trace.CommID // CommInfo: the created communicator
}

// Sink consumes the event stream of application ranks. Emit is called from
// the rank's goroutine; a Sink that blocks applies backpressure to the
// application, exactly like a saturated tool link.
type Sink interface {
	Emit(ev Event)
}

// Discard is a Sink that drops all events (reference runs without a tool).
type Discard struct{}

// Emit implements Sink.
func (Discard) Emit(Event) {}

// Func adapts a function to the Sink interface.
type Func func(Event)

// Emit implements Sink.
func (f Func) Emit(ev Event) { f(ev) }
