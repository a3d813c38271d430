package event

import (
	"testing"

	"dwst/internal/trace"
)

func TestDiscardAndFuncSinks(t *testing.T) {
	Discard{}.Emit(Event{Type: Done, Proc: 1}) // must not panic

	var got []Event
	sink := Func(func(ev Event) { got = append(got, ev) })
	sink.Emit(Event{Type: Enter, Op: trace.Op{Proc: 2, TS: 0, Kind: trace.Send}})
	sink.Emit(Event{Type: Status, Proc: 2, TS: 0, Src: 1})
	sink.Emit(Event{Type: CommInfo, Proc: 2, TS: 3, Comm: 9})
	if len(got) != 3 {
		t.Fatalf("got %d events", len(got))
	}
	if got[0].Type != Enter || got[0].Op.Proc != 2 {
		t.Fatalf("enter event %+v", got[0])
	}
	if got[1].Type != Status || got[1].Src != 1 {
		t.Fatalf("status event %+v", got[1])
	}
	if got[2].Type != CommInfo || got[2].Comm != 9 {
		t.Fatalf("comminfo event %+v", got[2])
	}
}

// TestTypeValuesAreStable pins the event types' numeric values: Recorder
// writes Type as a JSON number, so a renumbering would misread every trace
// recorded before it.
func TestTypeValuesAreStable(t *testing.T) {
	for typ, want := range map[Type]int{Enter: 0, Status: 1, Done: 2, CommInfo: 3, RankDown: 5} {
		if int(typ) != want {
			t.Errorf("type %d, want %d", typ, want)
		}
	}
}
