// Worker-process side of the TCP fabric: RunWorker is the whole life of a
// mustnode process. It dials the coordinator, receives the tree geometry in
// the welcome, builds its slice of the first tool layer, and serves events
// until the coordinator shuts it down or the connection is lost past budget.
package core

import (
	"errors"
	"sync"
	"time"

	"dwst/internal/dws"
	"dwst/internal/tbon"
)

// NetOptions configures the coordinator side of a TCP-fabric run
// (Options.Net). The zero value of each field selects a sane default.
type NetOptions struct {
	// Listen is the coordinator's listen address (default "127.0.0.1:0").
	Listen string
	// Workers is the number of worker processes sharing the first tool
	// layer. Must be ≥ 1 and ≤ the first-layer width.
	Workers int
	// Budget is the graceful-degradation budget: how long a worker may stay
	// disconnected before its leaves are spliced out and the run degrades
	// to a partial report. Default 3s.
	Budget time.Duration
	// OnListen, when non-nil, is called with the bound listen address
	// before waiting for workers — the hook the orchestrator uses to spawn
	// worker processes pointed at an ephemeral port.
	OnListen func(addr string)
	// Recover enables coordinator-side journaling of every first-layer
	// input so a worker process that dies can be respawned and replayed
	// into byte-exact state (the supervised-respawn path). Off, a dead
	// worker can only ride the degradation budget into a PARTIAL splice.
	Recover bool
	// JournalCap bounds each per-leaf recovery journal (entries). Past the
	// cap the journal overflows permanently and respawn admission falls
	// back to degradation. 0 selects the default.
	JournalCap int
	// Control, when non-nil, is bound to the running coordinator before
	// OnListen fires; the orchestrator uses it to mint recovery tokens.
	Control *NetControl
}

// NetControl is the orchestrator's handle into a running coordinator.
// Allocate one, place it in NetOptions.Control, and Run binds it before
// OnListen fires — so supervisor goroutines spawned from OnListen may use
// it immediately. Safe for concurrent use.
type NetControl struct {
	mu   sync.Mutex
	mint func(worker int) (string, error)
}

// RecoveryToken fences the worker's stale incarnation and mints a one-shot
// resume token for a supervised respawn. It fails when recovery is off,
// the slot already degraded, the journal overflowed, or the worker is in
// fact still connected — in every case the honest fallback is to let the
// degradation budget expire into a PARTIAL splice-out.
func (c *NetControl) RecoveryToken(worker int) (string, error) {
	c.mu.Lock()
	mint := c.mint
	c.mu.Unlock()
	if mint == nil {
		return "", errors.New("core: NetControl not bound to a running coordinator")
	}
	return mint(worker)
}

func (c *NetControl) bind(mint func(int) (string, error)) {
	c.mu.Lock()
	c.mint = mint
	c.mu.Unlock()
}

// WorkerOptions parameterizes RunWorker.
type WorkerOptions struct {
	// DialTimeout bounds the initial connection attempt (default 5s).
	DialTimeout time.Duration
	// Halt, when non-nil, abruptly kills the worker when it fires — the
	// in-process stand-in for `kill -9` used by fault-injection tests and
	// the -kill-worker orchestration flag. No final report is sent.
	Halt <-chan struct{}
	// Resume is the one-shot recovery token minted by NetControl for a
	// supervised respawn. Non-empty, the worker joins as a fresh
	// incarnation and replays the coordinator-shipped journal before
	// serving live traffic. An invalid or reused token is fenced.
	Resume string
}

// RunWorker runs one worker process of a TCP-fabric tool run. It returns
// nil after a clean coordinator-initiated shutdown and an error when the
// fabric failed permanently (fenced reconnect, budget exceeded, halt).
func RunWorker(addr string, worker int, opts WorkerOptions) error {
	ws, err := tbon.DialWorkerResume(addr, worker, opts.DialTimeout, opts.Resume)
	if err != nil {
		return err
	}
	cfg := ws.TreeConfig()

	// The final report folds every local leaf's tool-layer numbers into the
	// coordinator's result; the factory below registers leaves as it builds
	// them. ServeWorker calls this only after the tree's workers quiesced.
	var mu sync.Mutex
	var leaves []*dws.Node
	cfg.Net.FinalStats = func() (dws.Stats, int) {
		mu.Lock()
		defer mu.Unlock()
		var st dws.Stats
		hw := 0
		for _, l := range leaves {
			st.Add(l.Stats())
			if w := l.WindowHighWater(); w > hw {
				hw = w
			}
		}
		return st, hw
	}

	tree, err := tbon.NewNet(cfg)
	if err != nil {
		ws.Close()
		return err
	}
	tree.Start(func(n *tbon.Node) tbon.Handler {
		// Workers own first-layer nodes only; upper layers and the root
		// live in the coordinator process.
		h := &handler{tn: n}
		idx := n.Index()
		h.leaf = dws.NewNode(idx, n.Tree().RanksOf(idx), n.Tree().NodeFor, tbonOut{tn: n})
		h.leaf.SetBatch(true)
		mu.Lock()
		leaves = append(leaves, h.leaf)
		mu.Unlock()
		return h
	})

	done := make(chan struct{})
	defer close(done)
	if opts.Halt != nil {
		go func() {
			select {
			case <-opts.Halt:
				tree.HaltNet()
			case <-done:
			}
		}()
	}
	return tree.ServeWorker()
}
