package platform

import (
	"fmt"
	"slices"
	"sort"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

// ownNode is the per-node bookkeeping record of Fig. 7 (struct own_node):
// node kind, the neighbor list, and the set of processors for which this
// node is a shadow ("by analyzing this array for each of its peripheral
// nodes, a processor exactly knows the neighboring processors it needs to
// communicate, and what to communicate").
type ownNode struct {
	id         graph.NodeID
	peripheral bool
	neighbors  []graph.NodeID // sorted, from the application graph
	shadowFor  []int          // sorted processor ids; empty for internal nodes
	// lastCost is the node's observed compute cost in the most recent
	// iteration (summed over sub-phases). The migration-node selection
	// uses it to prefer shedding hot nodes.
	lastCost float64
}

// rankState is everything one processor keeps in local memory: the
// internal and peripheral node lists, the data store with its hash index
// (own + shadow entries), the node-to-owner map (the thesis' output_arr,
// replicated on every processor), and the communication buffer sizes.
type rankState struct {
	cfg  *Config
	comm *mpi.Comm
	me   int
	// speed caches the interconnect model's relative execution-time
	// multiplier for this processor (1 on homogeneous machines).
	speed float64

	owner []int // node -> owning processor, kept in sync across ranks

	internal   []*ownNode
	peripheral []*ownNode
	byID       map[graph.NodeID]*ownNode // index over internal+peripheral

	table *HashTable // own + shadow data entries

	// nbrs lists, ascending by processor, the neighboring processors this
	// rank exchanges shadows with, each with its send count (how many of
	// my peripheral nodes are shadows for it: buffer_size_for_communication)
	// and its receive count (how many shadow nodes I hold that it owns; I
	// expect exactly one update per such node per exchange). Both counts
	// come from the neighbor lists of my peripheral nodes, so a processor
	// I send to is always one I receive from and one list serves both
	// directions. A rank keeps only the processors it actually exchanges
	// with, so its bookkeeping is O(degree) rather than O(P), and every
	// exchange loop visits them in ascending order, which fixes the
	// virtual timeline at every Procs.
	nbrs []nbrProc
	// seen is rebuildCounts' scratch set of shadow nodes already counted,
	// cleared and reused so that a warm rebuild allocates nothing.
	seen map[graph.NodeID]struct{}

	// Exchange buffer pool. sendPool holds two generations of send
	// buffers indexed like nbrs; successive exchanges alternate
	// generations, so a buffer handed to Isend in exchange k is only
	// truncated and repacked in exchange k+2. Each
	// generation records the processors it was packed for and is reused
	// only while that list is unchanged; once a migration changes it the
	// generation starts fresh, so a buffer is only ever repacked for the
	// processor it was last sent to. That gap is what makes reuse safe
	// under the runtime's deliver-by-reference contract: shadow exchange
	// is symmetric (I send to p iff I receive from p), so receiving p's
	// exchange-(k+1) buffer proves p finished its exchange k and has
	// already unpacked everything we sent it in exchange k. nbrScratch is
	// the recycled node+neighbors list handed to the node function.
	sendPool   [2]sendGeneration
	exchanges  int
	nbrScratch []Neighbor

	phase [NumPhases]float64
	// workTime is the compute time of the most recent full iteration — the
	// node weight of the processor graph. The thesis accumulates time since
	// the last balancing; measuring the latest iteration keeps decisions
	// fresh when the application's load shifts (Fig. 23), which matters on
	// deterministic clocks.
	workTime float64

	// balHist is the bounded window of balancing-invocation load records
	// handed to history-aware balancers (see HistoryBalancer). Populated on
	// rank 0 only, and only when the configured balancer asks for history,
	// so runs with the classic balancers carry no extra state. Part of the
	// checkpointed rank state: a resumed run forecasts from exactly the
	// window the uninterrupted run would hold.
	balHist []LoadSample

	migrations int
}

// nbrProc is one neighboring processor with its per-exchange send and
// receive update counts.
type nbrProc struct {
	proc       int
	send, recv int
}

// sendGeneration is one generation of the exchange buffer pool: bufs[i]
// was last packed for and sent to nbrs[i].proc.
type sendGeneration struct {
	nbrs []nbrProc
	bufs [][]shadowUpdate
}

// shadowUpdate is one packed buffer element (struct buffer_data_node):
// global ID plus the node's updated data.
type shadowUpdate struct {
	id   graph.NodeID
	data NodeData
}

func updateBytes(us []shadowUpdate) int {
	total := 0
	for _, u := range us {
		total += 4 + u.data.SizeBytes()
	}
	return total
}

// newRankState runs the initialization phase on one processor: it expands
// the node-to-processor mapping into node lists, the data node list and
// the hash table, charging the per-entry initialization overhead.
func newRankState(cfg *Config, comm *mpi.Comm) (*rankState, error) {
	t0 := comm.Wtime()
	s, err := emptyRankState(cfg, comm, cfg.InitialPartition)
	if err != nil {
		return nil, err
	}
	n := cfg.Graph.NumVertices()

	entries := 0
	// Build own node lists and own data entries.
	for v := 0; v < n; v++ {
		if s.owner[v] != s.me {
			continue
		}
		id := graph.NodeID(v)
		node := &ownNode{id: id, neighbors: cfg.Graph.Adj[v]}
		d := cfg.InitData(id)
		if d == nil {
			return nil, fmt.Errorf("platform: InitData returned nil for node %d", id)
		}
		if err := s.table.Insert(&entry{id: id, data: d, mostRecent: d}); err != nil {
			return nil, err
		}
		entries++
		s.classify(node)
		if node.peripheral {
			s.peripheral = append(s.peripheral, node)
		} else {
			s.internal = append(s.internal, node)
		}
		s.byID[id] = node
		entries++
	}
	// Insert shadow entries: non-local neighbors of peripheral nodes.
	for _, node := range s.peripheral {
		for _, u := range node.neighbors {
			if s.owner[u] == s.me || s.table.Lookup(u) != nil {
				continue
			}
			d := cfg.InitData(u)
			if d == nil {
				return nil, fmt.Errorf("platform: InitData returned nil for node %d", u)
			}
			if err := s.table.Insert(&entry{id: u, data: d, mostRecent: d}); err != nil {
				return nil, err
			}
			entries++
		}
	}
	s.rebuildCounts()
	comm.Charge(float64(entries) * cfg.Overheads.InitPerEntry)
	s.phase[PhaseInit] += comm.Wtime() - t0
	return s, nil
}

// emptyRankState returns one rank's state with its own copy of the owner
// map and an empty hash table sized from the nodes it owns; newRankState
// and restoreRankState fill in the node lists and data entries.
func emptyRankState(cfg *Config, comm *mpi.Comm, owner []int) (*rankState, error) {
	me := comm.Rank()
	owned := 0
	for _, p := range owner {
		if p == me {
			owned++
		}
	}
	// At most 8 buckets per owned node leaves room for the shadows and for
	// nodes migrated in, without giving a rank of a huge world a table
	// sized for half the graph.
	table, err := NewHashTable(min(len(owner)/2, 8*owned) + 1)
	if err != nil {
		return nil, err
	}
	return &rankState{
		cfg:   cfg,
		comm:  comm,
		me:    me,
		speed: cfg.Network.Speed(me),
		owner: append([]int(nil), owner...),
		byID:  make(map[graph.NodeID]*ownNode),
		table: table,
		seen:  make(map[graph.NodeID]struct{}),
	}, nil
}

// classify recomputes a node's peripheral flag and shadowFor set from the
// current owner map.
func (s *rankState) classify(node *ownNode) {
	node.shadowFor = node.shadowFor[:0]
	node.peripheral = false
	for _, u := range node.neighbors {
		p := s.owner[u]
		if p == s.me {
			continue
		}
		node.peripheral = true
		if !containsInt(node.shadowFor, p) {
			node.shadowFor = append(node.shadowFor, p)
		}
	}
	sort.Ints(node.shadowFor)
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// rebuildCounts recomputes nbrs from the node lists and the owner map.
// The send counts fall out of the peripheral shadowFor sets; the receive
// counts count distinct shadow nodes per owning processor. The list is
// rebuilt in place, so once its capacity has warmed up a rebuild
// allocates nothing.
func (s *rankState) rebuildCounts() {
	if cap(s.nbrs) == 0 {
		// Reserve room for every processor this rank can neighbor, so the
		// list is not grown one insert at a time.
		bound := 0
		for _, node := range s.peripheral {
			bound += len(node.shadowFor)
		}
		s.nbrs = make([]nbrProc, 0, min(bound, s.cfg.Procs-1))
	}
	s.nbrs = s.nbrs[:0]
	clear(s.seen)
	for _, node := range s.peripheral {
		for _, p := range node.shadowFor {
			s.nbr(p).send++
		}
		for _, u := range node.neighbors {
			if s.owner[u] == s.me {
				continue
			}
			if _, ok := s.seen[u]; ok {
				continue
			}
			s.seen[u] = struct{}{}
			s.nbr(s.owner[u]).recv++
		}
	}
}

// nbr returns processor p's entry in nbrs, inserting it in order if it is
// not listed yet.
func (s *rankState) nbr(p int) *nbrProc {
	i, found := slices.BinarySearchFunc(s.nbrs, p, func(nb nbrProc, p int) int { return nb.proc - p })
	if !found {
		s.nbrs = slices.Insert(s.nbrs, i, nbrProc{proc: p})
	}
	return &s.nbrs[i]
}

// sendRow materializes the dense per-processor send-count vector (with
// numOwned appended — the row the load balancer gathers at rank 0). The
// balancer's processor graph is inherently dense, so the O(P) expansion
// is paid only inside balancing rounds, never per exchange.
func (s *rankState) sendRow() []int {
	row := make([]int, s.cfg.Procs+1)
	for _, nb := range s.nbrs {
		row[nb.proc] = nb.send
	}
	row[s.cfg.Procs] = s.numOwned()
	return row
}

// reclassifyAll rebuilds the internal/peripheral split after ownership
// changes: internal nodes that gained a remote neighbor move to the
// peripheral list and vice versa, and every peripheral node's shadowFor
// set is recomputed (the thesis' post-migration "Updating the
// shadow_for_procs[] array for the peripheral nodes" loop).
func (s *rankState) reclassifyAll() {
	all := make([]*ownNode, 0, len(s.internal)+len(s.peripheral))
	all = append(all, s.internal...)
	all = append(all, s.peripheral...)
	s.internal = s.internal[:0]
	s.peripheral = s.peripheral[:0]
	for _, node := range all {
		s.classify(node)
		if node.peripheral {
			s.peripheral = append(s.peripheral, node)
		} else {
			s.internal = append(s.internal, node)
		}
	}
	sortNodes(s.internal)
	sortNodes(s.peripheral)
	s.rebuildCounts()
}

func sortNodes(nodes []*ownNode) {
	sort.Slice(nodes, func(a, b int) bool { return nodes[a].id < nodes[b].id })
}

// ownsNode reports whether this rank currently owns id.
func (s *rankState) ownsNode(id graph.NodeID) bool { return s.owner[id] == s.me }

// numOwned returns the number of nodes this rank owns.
func (s *rankState) numOwned() int { return len(s.internal) + len(s.peripheral) }

// checkInvariants validates the state's internal consistency; runs with
// Config.CheckInvariants set call it after every iteration and after
// every migration round.
func (s *rankState) checkInvariants() error {
	for _, node := range s.internal {
		if node.peripheral {
			return fmt.Errorf("rank %d: node %d in internal list flagged peripheral", s.me, node.id)
		}
		if len(node.shadowFor) != 0 {
			return fmt.Errorf("rank %d: internal node %d has shadowFor %v", s.me, node.id, node.shadowFor)
		}
		for _, u := range node.neighbors {
			if s.owner[u] != s.me {
				return fmt.Errorf("rank %d: internal node %d has remote neighbor %d", s.me, node.id, u)
			}
		}
	}
	for _, node := range s.peripheral {
		if !node.peripheral {
			return fmt.Errorf("rank %d: node %d in peripheral list not flagged", s.me, node.id)
		}
		remote := false
		for _, u := range node.neighbors {
			if s.owner[u] != s.me {
				remote = true
				if !containsInt(node.shadowFor, s.owner[u]) {
					return fmt.Errorf("rank %d: peripheral node %d missing shadowFor %d", s.me, node.id, s.owner[u])
				}
			}
		}
		if !remote {
			return fmt.Errorf("rank %d: peripheral node %d has no remote neighbor", s.me, node.id)
		}
	}
	for id, node := range s.byID {
		if id != node.id {
			return fmt.Errorf("rank %d: byID key %d points at node %d", s.me, id, node.id)
		}
		if s.owner[id] != s.me {
			return fmt.Errorf("rank %d: byID holds non-owned node %d", s.me, id)
		}
		if s.table.Lookup(id) == nil {
			return fmt.Errorf("rank %d: owned node %d missing from hash table", s.me, id)
		}
	}
	if len(s.byID) != s.numOwned() {
		return fmt.Errorf("rank %d: byID has %d entries for %d owned nodes", s.me, len(s.byID), s.numOwned())
	}
	// Every shadow needed for computation must be present in the table.
	for _, node := range s.peripheral {
		for _, u := range node.neighbors {
			if s.table.Lookup(u) == nil {
				return fmt.Errorf("rank %d: shadow %d of peripheral %d missing", s.me, u, node.id)
			}
		}
	}
	return nil
}
