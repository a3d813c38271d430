package mpisim

import (
	"fmt"
	"sort"
	"sync"

	"dwst/internal/trace"
)

// comm is a communicator: an ordered group of world ranks plus per-wave
// collective state. Collectives on the same communicator must be issued in
// the same order by all participants (as MPI requires); each rank's k-th
// collective on the communicator joins wave k.
type comm struct {
	id    trace.CommID
	group []int // world ranks, ascending group-rank order

	index map[int]int // world rank → group rank

	mu    sync.Mutex
	waves map[int]*wave
}

func newComm(id trace.CommID, group []int) *comm {
	c := &comm{id: id, group: group, index: make(map[int]int, len(group)), waves: make(map[int]*wave)}
	for i, r := range group {
		c.index[r] = i
	}
	return c
}

// worldRank converts a group rank to a world rank.
func (c *comm) worldRank(groupRank int) int {
	if groupRank < 0 || groupRank >= len(c.group) {
		panic(fmt.Sprintf("mpisim: rank %d out of range for communicator %d (size %d)", groupRank, c.id, len(c.group)))
	}
	return c.group[groupRank]
}

// groupRank converts a world rank to a group rank.
func (c *comm) groupRank(worldRank int) int {
	gr, ok := c.index[worldRank]
	if !ok {
		panic(fmt.Sprintf("mpisim: world rank %d not in communicator %d", worldRank, c.id))
	}
	return gr
}

// wave is the state of one collective instance on a communicator.
type wave struct {
	kind    trace.Kind
	arrived int
	exited  int
	data    [][]byte // contribution per group rank
	cells   [][]int  // Comm_split (color, key) per group rank

	full    chan struct{} // closed when all participants arrived
	rootCh  chan struct{} // closed when the root arrived
	rootArr bool

	// newComms holds the result of Comm_dup/Comm_split: per group rank the
	// created communicator. Filled by the participant that completes the
	// wave, before full is closed.
	newComms []*comm
}

// joinWave deposits a contribution and returns the wave. root < 0 for
// non-rooted collectives.
func (c *comm) joinWave(p *Proc, kind trace.Kind, root int, data []byte, cell []int) *wave {
	seq := p.collSeq[c.id]
	if p.collSeq == nil {
		p.collSeq = make(map[trace.CommID]int)
	}
	p.collSeq[c.id] = seq + 1

	c.mu.Lock()
	wv := c.waves[seq]
	if wv == nil {
		wv = &wave{
			kind:   kind,
			data:   make([][]byte, len(c.group)),
			cells:  make([][]int, len(c.group)),
			full:   make(chan struct{}),
			rootCh: make(chan struct{}),
		}
		c.waves[seq] = wv
	}
	gr := c.groupRank(p.rank)
	wv.data[gr] = data
	wv.cells[gr] = cell
	wv.arrived++
	if root >= 0 && gr == root && !wv.rootArr {
		wv.rootArr = true
		close(wv.rootCh)
	}
	if wv.arrived == len(c.group) {
		// Complete the wave: build result communicators if needed, then
		// release everyone.
		switch kind {
		case trace.CommDup:
			nc := newComm(p.w.newCommID(), append([]int(nil), c.group...))
			p.w.registerComm(nc)
			wv.newComms = make([]*comm, len(c.group))
			for i := range wv.newComms {
				wv.newComms[i] = nc
			}
		case trace.CommSplit:
			wv.newComms = splitComms(p.w, c, wv.cells)
		}
		close(wv.full)
	}
	c.mu.Unlock()
	return wv
}

// leaveWave releases wave bookkeeping once every participant has exited.
func (c *comm) leaveWave(p *Proc, seq int, wv *wave) {
	c.mu.Lock()
	wv.exited++
	if wv.exited == len(c.group) {
		delete(c.waves, seq)
	}
	c.mu.Unlock()
}

// splitComms computes the communicators created by MPI_Comm_split: group by
// color, order by (key, world rank). cells[i] = {color, key}.
func splitComms(w *World, c *comm, cells [][]int) []*comm {
	type member struct{ color, key, world, group int }
	var ms []member
	for gr, cell := range cells {
		ms = append(ms, member{color: cell[0], key: cell[1], world: c.group[gr], group: gr})
	}
	colors := map[int][]member{}
	for _, m := range ms {
		colors[m.color] = append(colors[m.color], m)
	}
	var order []int
	for col := range colors {
		order = append(order, col)
	}
	sort.Ints(order)
	out := make([]*comm, len(c.group))
	for _, col := range order {
		mem := colors[col]
		sort.Slice(mem, func(a, b int) bool {
			if mem[a].key != mem[b].key {
				return mem[a].key < mem[b].key
			}
			return mem[a].world < mem[b].world
		})
		ranks := make([]int, len(mem))
		for i, m := range mem {
			ranks[i] = m.world
		}
		nc := newComm(w.newCommID(), ranks)
		w.registerComm(nc)
		for _, m := range mem {
			out[m.group] = nc
		}
	}
	return out
}

// synchronizing reports whether the collective kind acts as a barrier for
// rank gr. Non-rooted collectives always synchronize. Rooted collectives
// synchronize only when the configuration forces it; otherwise the
// data-dependency structure decides:
//   - inbound  (Reduce, Gather): the root waits for all, others leave early;
//   - outbound (Bcast, Scatter): non-roots wait for the root only.
func (w *World) collWaitPolicy(kind trace.Kind) (rooted bool, inbound bool) {
	switch kind {
	case trace.Reduce, trace.Gather:
		return true, true
	case trace.Bcast, trace.Scatter:
		return true, false
	default:
		return false, false
	}
}

// collective runs one collective call: deposits data, applies the blocking
// policy, and returns the wave for result extraction.
func (p *Proc) collective(kind trace.Kind, commID trace.CommID, root int, data []byte, cell []int) *wave {
	c := p.w.comm(commID)
	op := trace.Op{Kind: kind, Comm: commID, Peer: root}
	ts := p.enter(op)
	seq := p.collSeq[c.id] // joinWave increments; capture for leaveWave
	wv := c.joinWave(p, kind, root, data, cell)

	rooted, inbound := p.w.collWaitPolicy(kind)
	gr := c.groupRank(p.rank)
	switch {
	case !rooted || p.w.cfg.SynchronizingCollectives:
		p.waitAbortable(wv.full)
	case inbound && gr == root:
		p.waitAbortable(wv.full)
	case inbound:
		// Non-root of Reduce/Gather: contribution deposited; leave early.
	case gr == root:
		// Root of Bcast/Scatter: data deposited; leave early.
	default:
		p.waitAbortable(wv.rootCh)
	}

	if kind == trace.CommDup || kind == trace.CommSplit {
		p.commInfo(ts, wv.newComms[gr].id)
	}
	c.leaveWave(p, seq, wv)
	p.w.noteProgress()
	return wv
}

// Barrier is MPI_Barrier.
func (p *Proc) Barrier(comm trace.CommID) {
	p.collective(trace.Barrier, comm, -1, nil, nil)
}

// Bcast is MPI_Bcast: returns the root's buffer on every rank.
func (p *Proc) Bcast(data []byte, root int, comm trace.CommID) []byte {
	wv := p.collective(trace.Bcast, comm, root, data, nil)
	return p.w.comm(comm).rootData(wv, root)
}

// rootData reads the root's contribution to wv. It takes the lock
// joinWave writes under: with mismatched root arguments the rank this
// caller names as root may still be joining.
func (c *comm) rootData(wv *wave, root int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return wv.data[root]
}

// ReduceOp selects the reduction operation (elementwise over int64 words).
type ReduceOp int

const (
	// OpSum is MPI_SUM.
	OpSum ReduceOp = iota
	// OpMax is MPI_MAX.
	OpMax
	// OpMin is MPI_MIN.
	OpMin
	// OpProd is MPI_PROD.
	OpProd
)

// Reduce is MPI_Reduce with elementwise int64 sum over 8-byte words; the
// result is only meaningful on the root (as in MPI).
func (p *Proc) Reduce(data []byte, root int, comm trace.CommID) []byte {
	return p.ReduceWith(data, OpSum, root, comm)
}

// ReduceWith is MPI_Reduce with a selectable operation.
func (p *Proc) ReduceWith(data []byte, op ReduceOp, root int, comm trace.CommID) []byte {
	wv := p.collective(trace.Reduce, comm, root, data, nil)
	if p.w.comm(comm).groupRank(p.rank) != root {
		return nil
	}
	return foldWords(wv.data, op)
}

// Allreduce is MPI_Allreduce with elementwise int64 sum.
func (p *Proc) Allreduce(data []byte, comm trace.CommID) []byte {
	return p.AllreduceWith(data, OpSum, comm)
}

// AllreduceWith is MPI_Allreduce with a selectable operation.
func (p *Proc) AllreduceWith(data []byte, op ReduceOp, comm trace.CommID) []byte {
	wv := p.collective(trace.Allreduce, comm, -1, data, nil)
	return foldWords(wv.data, op)
}

// Gather is MPI_Gather: the root receives the concatenation of all
// contributions in group-rank order.
func (p *Proc) Gather(data []byte, root int, comm trace.CommID) [][]byte {
	wv := p.collective(trace.Gather, comm, root, data, nil)
	if p.w.comm(comm).groupRank(p.rank) != root {
		return nil
	}
	return append([][]byte(nil), wv.data...)
}

// Allgather is MPI_Allgather.
func (p *Proc) Allgather(data []byte, comm trace.CommID) [][]byte {
	wv := p.collective(trace.Allgather, comm, -1, data, nil)
	return append([][]byte(nil), wv.data...)
}

// Scatter is MPI_Scatter: the root provides one slice per rank (concatenated
// into data as equal chunks is the caller's business; here the root passes
// the full buffer and every rank receives its equal chunk).
func (p *Proc) Scatter(data []byte, root int, comm trace.CommID) []byte {
	wv := p.collective(trace.Scatter, comm, root, data, nil)
	c := p.w.comm(comm)
	whole := c.rootData(wv, root)
	n := len(c.group)
	if n == 0 || len(whole) == 0 {
		return nil
	}
	chunk := len(whole) / n
	gr := c.groupRank(p.rank)
	lo := gr * chunk
	hi := lo + chunk
	if gr == n-1 {
		hi = len(whole)
	}
	return whole[lo:hi]
}

// Alltoall is MPI_Alltoall over equal chunks: every rank contributes a
// buffer of group-size equal chunks and receives its column.
func (p *Proc) Alltoall(data []byte, comm trace.CommID) []byte {
	wv := p.collective(trace.Alltoall, comm, -1, data, nil)
	c := p.w.comm(comm)
	n := len(c.group)
	gr := c.groupRank(p.rank)
	var out []byte
	for i := 0; i < n; i++ {
		src := wv.data[i]
		if len(src) == 0 {
			continue
		}
		chunk := len(src) / n
		lo := gr * chunk
		hi := lo + chunk
		if gr == n-1 {
			hi = len(src)
		}
		out = append(out, src[lo:hi]...)
	}
	return out
}

// Scan is MPI_Scan with int64 prefix sums: rank r receives the sum of
// contributions of group ranks 0..r.
func (p *Proc) Scan(data []byte, comm trace.CommID) []byte {
	wv := p.collective(trace.Scan, comm, -1, data, nil)
	c := p.w.comm(comm)
	gr := c.groupRank(p.rank)
	return foldWords(wv.data[:gr+1], OpSum)
}

// CommDup is MPI_Comm_dup: collectively creates a duplicate communicator.
func (p *Proc) CommDup(comm trace.CommID) trace.CommID {
	wv := p.collective(trace.CommDup, comm, -1, nil, nil)
	return wv.newComms[p.w.comm(comm).groupRank(p.rank)].id
}

// CommSplit is MPI_Comm_split.
func (p *Proc) CommSplit(comm trace.CommID, color, key int) trace.CommID {
	wv := p.collective(trace.CommSplit, comm, -1, nil, []int{color, key})
	return wv.newComms[p.w.comm(comm).groupRank(p.rank)].id
}

// CommGroup returns the world ranks of a communicator (for tests/tools).
func (w *World) CommGroup(id trace.CommID) []int {
	return append([]int(nil), w.comm(id).group...)
}

// foldWords reduces byte buffers as little-endian int64 words with the
// given operation; shorter buffers are zero-extended (identity only for
// OpSum, as in MPI where counts must match — mismatched lengths are the
// application's problem).
func foldWords(bufs [][]byte, op ReduceOp) []byte {
	maxLen := 0
	for _, b := range bufs {
		if len(b) > maxLen {
			maxLen = len(b)
		}
	}
	if maxLen == 0 {
		return nil
	}
	words := (maxLen + 7) / 8
	acc := make([]int64, words)
	first := true
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for w := 0; w < words; w++ {
			var v int64
			for k := 0; k < 8 && w*8+k < len(b); k++ {
				v |= int64(b[w*8+k]) << (8 * k)
			}
			if first {
				acc[w] = v
				continue
			}
			switch op {
			case OpSum:
				acc[w] += v
			case OpMax:
				if v > acc[w] {
					acc[w] = v
				}
			case OpMin:
				if v < acc[w] {
					acc[w] = v
				}
			case OpProd:
				acc[w] *= v
			}
		}
		first = false
	}
	out := make([]byte, words*8)
	for w, v := range acc {
		for k := 0; k < 8; k++ {
			out[w*8+k] = byte(v >> (8 * k))
		}
	}
	return out[:maxLen]
}
