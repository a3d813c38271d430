// Package fault is the tool's fault-injection plane: a deterministic,
// seeded description of infrastructure misbehaviour — message drop,
// duplication, reordering, delay jitter, link stalls, and tool-node
// crashes — that the TBON applies to its internal links and nodes.
//
// The paper's protocols (Figures 6–8) assume lossless, non-overtaking
// links and immortal tool nodes. A production tool cannot: this package
// provides the adversary, and the TBON's reliable link layer
// (sequence numbers, acknowledgements, retransmission, resequencing)
// plus its supervisor, which reaps every node a crash killed, provide the
// defense. Chaos tests pair
// the two and assert the reported deadlock sets stay exact, or are
// explicitly flagged partial.
//
// All randomness is derived from Plan.Seed with a per-link splitmix64
// stream, so a failing chaos run is reproducible from its seed alone.
package fault

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// Class names the kind of tool-internal link a rule applies to.
type Class int

const (
	// AnyLink matches every tool-internal link.
	AnyLink Class = iota
	// UpLink matches child → parent links (and the root's self-loop).
	UpLink
	// DownLink matches parent → child broadcast links.
	DownLink
	// PeerLink matches first-layer intralayer links.
	PeerLink
	// RankLink is the rank → first-layer event link when it crosses a
	// process boundary (TCP transport): the coordinator sequences injected
	// rank events on it so the reliable layer can heal wire-level loss.
	// In-process fault rules never target it — it exists only where the
	// wire-level fault proxy, not the link pumps, is the adversary.
	RankLink
)

func (c Class) String() string {
	switch c {
	case UpLink:
		return "up"
	case DownLink:
		return "down"
	case PeerLink:
		return "peer"
	case RankLink:
		return "rank"
	default:
		return "any"
	}
}

// Rule is one fault policy. Probabilities are per message in [0, 1];
// zero-valued fields inject nothing.
type Rule struct {
	// Link restricts the rule to one link class (AnyLink = all).
	Link Class
	// Drop is the probability of losing a message.
	Drop float64
	// Dup is the probability of delivering a message twice.
	Dup float64
	// Reorder is the probability of a message overtaking its predecessor
	// on the link (a per-link FIFO violation).
	Reorder float64
	// JitterMax adds a uniform random delay in [0, JitterMax] to the
	// message's delivery time.
	JitterMax time.Duration
	// StallEvery/StallFor stall the whole link for StallFor once every
	// StallEvery messages (0 = never).
	StallEvery int
	StallFor   time.Duration
	// MaxDrops caps the number of messages this rule may drop across all
	// links (0 = unlimited). Used by tests that lose exactly one message.
	MaxDrops int
	// Match restricts the rule to messages it returns true for (nil =
	// all messages). The argument is the tool-level message, not the
	// transport frame.
	Match func(msg any) bool
}

// Crash schedules the death of one tool node: node (Layer, Index) dies at
// the end of the first delivery cycle after which it has dispatched
// AfterEnvelopes envelopes of any kind (0 = its first step). A slot's
// crashes apply in plan order, one per incarnation; the root cannot crash.
type Crash struct {
	Layer, Index   int
	AfterEnvelopes int
}

// RankCrash schedules the death of one *application* rank: immediately
// before issuing its AtCall-th MPI call (1-based), the rank's goroutine
// emits a RankDown event and exits. Its posted receives are tombstoned
// (the dead rank consumes nothing further), while messages it already
// sent stay matchable — mirroring an MPI process that was killed between
// two calls. Executed by mpisim, not by the link Injector.
type RankCrash struct {
	Rank int
	// AtCall is the 1-based index of the MPI call the crash preempts
	// (1 = the rank dies before its first call).
	AtCall int
}

// RankStall schedules a progress fault on one application rank:
// immediately before issuing its AtCall-th MPI call (1-based), the rank
// stops making MPI calls For the given duration — sleeping when Busy is
// false, livelocked in a compute spin when Busy is true. For == 0 means
// stall forever (the rank never issues another call and never exits).
// The rank is alive the whole time; only the progress watchdog can see
// this fault. Executed by mpisim, not by the link Injector.
type RankStall struct {
	Rank   int
	AtCall int
	For    time.Duration
	Busy   bool
}

// Plan is a complete, seeded fault scenario plus the knobs of the
// self-healing machinery that defends against it.
type Plan struct {
	// Seed derives every per-link random stream.
	Seed int64
	// Rules are the link-fault policies (all matching rules apply).
	Rules []Rule
	// Crashes are the scheduled tool-node deaths.
	Crashes []Crash

	// RankCrashes and RankStalls are the application-plane faults:
	// scheduled deaths and progress stalls of MPI ranks. They are
	// executed by the MPI simulator, not the link Injector — the tool
	// observes them only through the event stream (a RankDown event, or
	// no events at all for a stalled rank), exactly as a real tool would.
	RankCrashes []RankCrash
	RankStalls  []RankStall

	// DisableRetransmit turns the reliable link layer off, so injected
	// link faults become permanent. Used by tests that exercise the
	// higher-level defenses (snapshot epoch retry) in isolation.
	DisableRetransmit bool

	// Recover enables exact recovery of crashed first-layer tool nodes:
	// instead of degrading the report (Unknown ranks), the supervisor
	// respawns a replacement and the tool rebuilds its state by journal
	// replay. Requires the reliable link layer (ignored when
	// DisableRetransmit is set). Off by default so existing degradation
	// behaviour — and the tests asserting it — are unchanged; the mustrun
	// CLI turns it on whenever a fault plan is configured.
	Recover bool

	// JournalCap bounds the per-node journal suffix: when the live suffix
	// exceeds the cap, the owner takes a checkpoint regardless of the
	// retirement policy (0 = default, see internal/core).
	JournalCap int

	// RetryBase is the first retransmission timeout (default 2ms),
	// doubling per attempt up to RetryCap (default 32ms), for at most
	// MaxAttempts retransmissions (default 12) before the frame is
	// abandoned.
	RetryBase   time.Duration
	RetryCap    time.Duration
	MaxAttempts int
}

// RetryBaseInterval returns the effective first retransmission timeout.
func (p *Plan) RetryBaseInterval() time.Duration {
	if p.RetryBase > 0 {
		return p.RetryBase
	}
	return 2 * time.Millisecond
}

// RetryCapInterval returns the effective retransmission backoff cap.
func (p *Plan) RetryCapInterval() time.Duration {
	if p.RetryCap > 0 {
		return p.RetryCap
	}
	return 32 * time.Millisecond
}

// RetryAttempts returns the effective retransmission attempt bound.
func (p *Plan) RetryAttempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 12
}

// Decision is the fault outcome for one message on one link.
type Decision struct {
	// Drop loses the message.
	Drop bool
	// Dup delivers the message twice.
	Dup bool
	// Reorder lets the message overtake its predecessor.
	Reorder bool
	// Delay postpones delivery (jitter).
	Delay time.Duration
	// Stall freezes the whole link for this long.
	Stall time.Duration
}

// Injector instantiates a Plan: it hands out deterministic per-link
// deciders and owns the shared drop budgets. Safe for concurrent Link
// calls; each returned Link must be used by a single goroutine.
type Injector struct {
	plan    *Plan
	budgets []atomic.Int64 // remaining MaxDrops per rule (-1 = unlimited)
}

// NewInjector prepares the plan for execution.
func NewInjector(plan *Plan) *Injector {
	in := &Injector{plan: plan, budgets: make([]atomic.Int64, len(plan.Rules))}
	for i, r := range plan.Rules {
		if r.MaxDrops > 0 {
			in.budgets[i].Store(int64(r.MaxDrops))
		} else {
			in.budgets[i].Store(-1)
		}
	}
	return in
}

// Plan returns the underlying plan.
func (in *Injector) Plan() *Plan { return in.plan }

// takeDrop consumes one unit of rule ri's drop budget.
func (in *Injector) takeDrop(ri int) bool {
	b := &in.budgets[ri]
	for {
		cur := b.Load()
		if cur < 0 {
			return true // unlimited
		}
		if cur == 0 {
			return false
		}
		if b.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// Link returns the decider for one link, identified by the receiving
// node's global id and the link class. The random stream is a pure
// function of (Plan.Seed, id, class).
func (in *Injector) Link(id int, class Class) *Link {
	rules := make([]int, 0, len(in.plan.Rules))
	for i, r := range in.plan.Rules {
		if r.Link == AnyLink || r.Link == class {
			rules = append(rules, i)
		}
	}
	seed := splitmix64(uint64(in.plan.Seed) ^ splitmix64(uint64(id)<<8|uint64(class)))
	return &Link{
		inj:   in,
		rules: rules,
		rng:   rand.New(rand.NewSource(int64(seed))),
	}
}

// Link decides the fate of each message on one link. Not safe for
// concurrent use — it belongs to the link's pump goroutine.
type Link struct {
	inj   *Injector
	rules []int
	rng   *rand.Rand
	count int
}

// Decide rolls the link's deterministic dice for one message. The same
// number of random draws is consumed for every message, so decision
// streams do not depend on message contents beyond Match.
func (l *Link) Decide(msg any) Decision {
	var d Decision
	l.count++
	for _, ri := range l.rules {
		r := &l.inj.plan.Rules[ri]
		// Fixed draw count per rule keeps the stream deterministic.
		pd := l.rng.Float64()
		pu := l.rng.Float64()
		po := l.rng.Float64()
		var jitter time.Duration
		if r.JitterMax > 0 {
			jitter = time.Duration(l.rng.Int63n(int64(r.JitterMax) + 1))
		}
		if r.Match != nil && !r.Match(msg) {
			continue
		}
		if !d.Drop && pd < r.Drop && l.inj.takeDrop(ri) {
			d.Drop = true
		}
		if pu < r.Dup {
			d.Dup = true
		}
		if po < r.Reorder {
			d.Reorder = true
		}
		if jitter > d.Delay {
			d.Delay = jitter
		}
		if r.StallEvery > 0 && l.count%r.StallEvery == 0 && r.StallFor > d.Stall {
			d.Stall = r.StallFor
		}
	}
	return d
}

// splitmix64 is the SplitMix64 mixing function — a cheap, high-quality
// way to derive independent streams from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
