package platform

import (
	"fmt"
	"slices"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

// tagShadow carries shadow-node updates; one message per neighboring
// processor per exchange, tagged with the sub-phase so multi-sub-phase
// applications (battlefield) never cross-match rounds.
func tagShadow(sub int) int { return 100 + sub }

// computeAndCommunicate runs one compute+communicate round (Figures 8 and
// 8a). It updates every owned node with the user's node function, packs
// updated peripheral data into per-destination buffers, exchanges shadow
// updates with neighboring processors, and applies received updates.
func (s *rankState) computeAndCommunicate(iter, sub int) error {
	if s.cfg.Overlap {
		return s.roundOverlapped(iter, sub)
	}
	return s.roundBasic(iter, sub)
}

// roundBasic is Fig. 8: internal nodes, then peripheral nodes (packing as
// they complete), then MPI_Isend/MPI_Recv of the buffers.
func (s *rankState) roundBasic(iter, sub int) error {
	buffers := s.makeBuffers()
	// Compute over nodes: internal first, then peripheral.
	for _, node := range s.internal {
		if err := s.computeNode(node, iter, sub, nil); err != nil {
			return err
		}
	}
	for _, node := range s.peripheral {
		if err := s.computeNode(node, iter, sub, buffers); err != nil {
			return err
		}
	}
	s.flipMostRecent()
	// Communicate shadows.
	if err := s.sendBuffers(buffers, sub); err != nil {
		return err
	}
	return s.recvShadows(sub, nil)
}

// roundOverlapped is Fig. 8a: peripheral nodes first, dispatch shadows,
// post receives, compute internal nodes while communication is in flight,
// then wait and unpack.
func (s *rankState) roundOverlapped(iter, sub int) error {
	buffers := s.makeBuffers()
	for _, node := range s.peripheral {
		if err := s.computeNode(node, iter, sub, buffers); err != nil {
			return err
		}
	}
	if err := s.sendBuffers(buffers, sub); err != nil {
		return err
	}
	reqs := make([]*mpi.Request, len(s.nbrs))
	for i, nb := range s.nbrs {
		r, err := s.comm.Irecv(nb.proc, tagShadow(sub))
		if err != nil {
			return err
		}
		reqs[i] = r
	}
	// Remainder of the computation proceeds while communication continues.
	for _, node := range s.internal {
		if err := s.computeNode(node, iter, sub, nil); err != nil {
			return err
		}
	}
	s.flipMostRecent()
	return s.recvShadows(sub, reqs)
}

// makeBuffers returns one send buffer per processor in nbrs, sized from
// its send count ("the data structure chosen for the communication
// buffers gives optimum memory usage"). Without ReuseBuffers every
// exchange gets fresh allocations, matching the C original's
// malloc-per-round; with it the buffers come from the parity-indexed pool
// and are allocation-free once capacities have warmed up (see the
// sendPool comment in state.go for why a two-generation gap is
// sufficient).
func (s *rankState) makeBuffers() [][]shadowUpdate {
	if !s.cfg.ReuseBuffers {
		buffers := make([][]shadowUpdate, len(s.nbrs))
		for i, nb := range s.nbrs {
			buffers[i] = make([]shadowUpdate, 0, nb.send)
		}
		return buffers
	}
	gen := &s.sendPool[s.exchanges%2]
	s.exchanges++
	if !slices.EqualFunc(gen.nbrs, s.nbrs, func(a, b nbrProc) bool { return a.proc == b.proc }) {
		gen.nbrs = append(gen.nbrs[:0], s.nbrs...)
		gen.bufs = make([][]shadowUpdate, len(s.nbrs))
	}
	for i, nb := range s.nbrs {
		if cap(gen.bufs[i]) < nb.send {
			gen.bufs[i] = make([]shadowUpdate, 0, nb.send)
		} else {
			gen.bufs[i] = gen.bufs[i][:0]
		}
	}
	return gen.bufs
}

// computeNode forms the node+neighbors list, invokes the node function,
// stores the new data in most_recent, and (for peripheral nodes) packs the
// update into the outgoing buffers. Time is attributed to the compute and
// overhead phases exactly as Figures 21-22 split them.
func (s *rankState) computeNode(node *ownNode, iter, sub int, buffers [][]shadowUpdate) error {
	e := s.table.Lookup(node.id)
	if e == nil {
		return fmt.Errorf("platform: rank %d: no data entry for owned node %d", s.me, node.id)
	}
	// Computation overhead: form the list of the node and its neighbors.
	t0 := s.comm.Wtime()
	var neighbors []Neighbor
	if s.cfg.ReuseBuffers {
		if cap(s.nbrScratch) < len(node.neighbors) {
			s.nbrScratch = make([]Neighbor, len(node.neighbors))
		}
		neighbors = s.nbrScratch[:len(node.neighbors)]
	} else {
		neighbors = make([]Neighbor, len(node.neighbors))
	}
	for i, u := range node.neighbors {
		ne := s.table.Lookup(u)
		if ne == nil {
			return fmt.Errorf("platform: rank %d: missing neighbor data %d for node %d", s.me, u, node.id)
		}
		neighbors[i] = Neighbor{ID: u, Data: ne.data}
	}
	s.comm.Charge(float64(len(neighbors)+1) * s.cfg.Overheads.ListPerNeighbor)
	t1 := s.comm.Wtime()
	s.phase[PhaseComputeOverhead] += t1 - t0

	// The actual node computation (the grain), scaled by this processor's
	// relative speed when running on a heterogeneous network.
	newData, cost := s.cfg.Node(node.id, iter, sub, e.data, neighbors)
	if newData == nil {
		return fmt.Errorf("platform: node function returned nil data for node %d", node.id)
	}
	if cost < 0 {
		return fmt.Errorf("platform: node function returned negative cost %g for node %d", cost, node.id)
	}
	if s.speed != 1 {
		cost *= s.speed
	}
	s.comm.Charge(cost)
	t2 := s.comm.Wtime()
	s.phase[PhaseCompute] += t2 - t1
	if sub == 0 {
		node.lastCost = 0
	}
	node.lastCost += t2 - t1

	// Update the data node list (most_recent_data).
	e.mostRecent = newData
	s.comm.Charge(s.cfg.Overheads.UpdatePerNode)
	t3 := s.comm.Wtime()
	s.phase[PhaseComputeOverhead] += t3 - t2

	// Pack updated peripheral node data into communication buffers.
	// Both shadowFor and nbrs ascend, and rebuildCounts put every
	// shadowFor processor in nbrs, so one forward scan finds each slot.
	if node.peripheral {
		slot := 0
		for _, p := range node.shadowFor {
			for s.nbrs[slot].proc != p {
				slot++
			}
			buffers[slot] = append(buffers[slot], shadowUpdate{id: node.id, data: newData})
			s.comm.Charge(s.cfg.Overheads.PackPerNode)
		}
		s.phase[PhaseCommOverhead] += s.comm.Wtime() - t3
	}
	return nil
}

// flipMostRecent promotes most_recent_data to data for every owned node
// ("update data to most recent data before the next iteration").
func (s *rankState) flipMostRecent() {
	t0 := s.comm.Wtime()
	count := 0
	for _, node := range s.internal {
		e := s.table.Lookup(node.id)
		e.data = e.mostRecent
		count++
	}
	for _, node := range s.peripheral {
		e := s.table.Lookup(node.id)
		e.data = e.mostRecent
		count++
	}
	s.comm.Charge(float64(count) * s.cfg.Overheads.UpdatePerNode)
	s.phase[PhaseComputeOverhead] += s.comm.Wtime() - t0
}

// sendBuffers dispatches one nonblocking send per processor in nbrs, in
// ascending destination order.
func (s *rankState) sendBuffers(buffers [][]shadowUpdate, sub int) error {
	t0 := s.comm.Wtime()
	for i, nb := range s.nbrs {
		buf := buffers[i]
		if len(buf) != nb.send {
			return fmt.Errorf("platform: rank %d packed %d updates for proc %d, expected %d",
				s.me, len(buf), nb.proc, nb.send)
		}
		if err := s.comm.Isend(nb.proc, tagShadow(sub), buf, updateBytes(buf)); err != nil {
			return err
		}
	}
	s.phase[PhaseCommunicate] += s.comm.Wtime() - t0
	return nil
}

// recvShadows receives one buffer from every processor in nbrs and applies
// the updates to the data store. When reqs is non-nil (overlapped variant)
// it holds the already-posted requests, indexed like nbrs, and they are
// completed instead of issuing fresh receives.
func (s *rankState) recvShadows(sub int, reqs []*mpi.Request) error {
	for i, nb := range s.nbrs {
		var req *mpi.Request
		if reqs != nil {
			req = reqs[i]
		}
		if err := s.recvShadowsFrom(nb.proc, nb.recv, sub, req); err != nil {
			return err
		}
	}
	return nil
}

// recvShadowsFrom completes one receive from processor p (expecting want
// updates), through req if it is already posted, and applies the updates
// to the data store.
func (s *rankState) recvShadowsFrom(p, want, sub int, req *mpi.Request) error {
	t0 := s.comm.Wtime()
	var payload any
	var err error
	if req != nil {
		payload, err = req.Wait()
	} else {
		payload, err = s.comm.Recv(p, tagShadow(sub))
	}
	if err != nil {
		return err
	}
	t1 := s.comm.Wtime()
	s.phase[PhaseCommunicate] += t1 - t0

	buf, ok := payload.([]shadowUpdate)
	if !ok {
		return fmt.Errorf("platform: rank %d: unexpected payload %T from proc %d", s.me, payload, p)
	}
	if len(buf) != want {
		return fmt.Errorf("platform: rank %d received %d updates from proc %d, expected %d",
			s.me, len(buf), p, want)
	}
	for _, u := range buf {
		if s.owner[u.id] != p {
			return fmt.Errorf("platform: rank %d: proc %d sent update for node %d it does not own",
				s.me, p, u.id)
		}
		e := s.table.Lookup(u.id)
		if e == nil {
			return fmt.Errorf("platform: rank %d: received shadow %d it does not hold", s.me, u.id)
		}
		e.data = u.data
		e.mostRecent = u.data
		s.comm.Charge(s.cfg.Overheads.UnpackPerNode)
	}
	s.phase[PhaseCommOverhead] += s.comm.Wtime() - t1
	return nil
}

// gatherFinalData assembles every node's final data at rank 0. Each rank
// sends (id, data) pairs for the nodes it owns.
func (s *rankState) gatherFinalData() ([]NodeData, error) {
	own := make([]shadowUpdate, 0, s.numOwned())
	for _, node := range s.internal {
		own = append(own, shadowUpdate{id: node.id, data: s.table.Lookup(node.id).data})
	}
	for _, node := range s.peripheral {
		own = append(own, shadowUpdate{id: node.id, data: s.table.Lookup(node.id).data})
	}
	all, err := s.comm.Gather(0, own, updateBytes(own))
	if err != nil {
		return nil, err
	}
	if s.me != 0 {
		return nil, nil
	}
	out := make([]NodeData, s.cfg.Graph.NumVertices())
	for p, payload := range all {
		buf := payload.([]shadowUpdate)
		for _, u := range buf {
			if out[u.id] != nil {
				return nil, fmt.Errorf("platform: node %d reported by two owners", u.id)
			}
			if s.owner[u.id] != p {
				return nil, fmt.Errorf("platform: proc %d reported node %d owned by %d", p, u.id, s.owner[u.id])
			}
			out[u.id] = u.data
		}
	}
	for v, d := range out {
		if d == nil {
			return nil, fmt.Errorf("platform: no owner reported node %d", graph.NodeID(v))
		}
	}
	return out, nil
}
