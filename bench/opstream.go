package main

import (
	"fmt"
	"math/rand"

	"odbgc/internal/server"
)

// Shape of one client's data. Two clients hold about 1.2 MB of live objects,
// twelve times the modelled 96 KB buffer pool, so accesses fault pages and
// SAIO has application I/O to take its share of.
const (
	hubsPerClient = 512
	slotsPerHub   = 8
	hubBytes      = 144
	leafBytes     = 128
)

// clientModel is one client's seeded request stream and its picture of what
// the server must hold: hubsPerClient rooted hubs whose slots each point at a
// leaf. It draws access 35 %, update 20 % and, with the remaining 45 %, the
// next step of a replace sequence (create a leaf, store it into a hub slot,
// unroot it), which turns the displaced leaf into garbage. The live set is
// therefore constant and the database reaches a steady state.
type clientModel struct {
	rng  *rand.Rand
	hubs []uint64   // hub OIDs
	leaf [][]uint64 // leaf[h][s] is the OID hub h's slot s points at

	// The replace sequence in progress.
	step     int    // 0 create, 1 set, 2 unroot
	newLeaf  uint64 // created, not yet unrooted
	hub, sl  int    // where it goes
	expected uint64 // the leaf the set must displace

	created      int // objects this client created
	createdBytes int
	displaced    int // leaves this client turned into garbage
}

func newClientModel(seed int64) *clientModel {
	return &clientModel{rng: rand.New(rand.NewSource(seed))}
}

// preloadRequests returns how many requests preload issues.
func preloadRequests() int { return hubsPerClient + 3*hubsPerClient*slotsPerHub }

// preload builds the client's hubs and leaves through do.
func (m *clientModel) preload(do func(server.Request) (server.Response, error)) error {
	m.hubs = make([]uint64, hubsPerClient)
	m.leaf = make([][]uint64, hubsPerClient)
	for h := range m.hubs {
		resp, err := do(server.Request{Op: server.OpCreate, Size: hubBytes, Slots: slotsPerHub})
		if err != nil {
			return err
		}
		m.hubs[h] = resp.OID
		m.leaf[h] = make([]uint64, slotsPerHub)
		m.noteCreate(hubBytes)
	}
	for h := range m.hubs {
		for s := 0; s < slotsPerHub; s++ {
			resp, err := do(server.Request{Op: server.OpCreate, Size: leafBytes})
			if err != nil {
				return err
			}
			m.noteCreate(leafBytes)
			oid := resp.OID
			if _, err := do(server.Request{Op: server.OpSet, OID: m.hubs[h], Slot: s, Dst: oid}); err != nil {
				return err
			}
			if _, err := do(server.Request{Op: server.OpUnroot, OID: oid}); err != nil {
				return err
			}
			m.leaf[h][s] = oid
		}
	}
	return nil
}

func (m *clientModel) noteCreate(bytes int) {
	m.created++
	m.createdBytes += bytes
}

// next draws the next request.
func (m *clientModel) next() server.Request {
	r := m.rng.Float64()
	h, s := m.rng.Intn(hubsPerClient), m.rng.Intn(slotsPerHub)
	switch {
	case r < 0.35:
		if m.rng.Intn(slotsPerHub+1) == 0 {
			return server.Request{Op: server.OpAccess, OID: m.hubs[h]}
		}
		return server.Request{Op: server.OpAccess, OID: m.leaf[h][s]}
	case r < 0.55:
		return server.Request{Op: server.OpUpdate, OID: m.leaf[h][s]}
	}
	switch m.step {
	case 0:
		m.hub, m.sl = h, s
		return server.Request{Op: server.OpCreate, Size: leafBytes}
	case 1:
		m.expected = m.leaf[m.hub][m.sl]
		return server.Request{Op: server.OpSet, OID: m.hubs[m.hub], Slot: m.sl, Dst: m.newLeaf}
	}
	return server.Request{Op: server.OpUnroot, OID: m.newLeaf}
}

// ack folds an OK response into the model and checks what the server said
// against what the model expects.
func (m *clientModel) ack(req server.Request, resp server.Response) error {
	switch req.Op {
	case server.OpCreate:
		if resp.OID == 0 {
			return fmt.Errorf("create returned no OID")
		}
		m.newLeaf = resp.OID
		m.noteCreate(leafBytes)
		m.step = 1
	case server.OpSet:
		if resp.Old != m.expected {
			return fmt.Errorf("set %d[%d]: displaced %d, model expected %d", req.OID, req.Slot, resp.Old, m.expected)
		}
		m.leaf[m.hub][m.sl] = m.newLeaf
		m.displaced++
		m.step = 2
	case server.OpUnroot:
		m.newLeaf = 0
		m.step = 0
	}
	return nil
}

// liveObjects returns every object the server must still hold for this
// client: hubs, the leaves in their slots, and a created leaf that is still
// rooted because its sequence is not finished.
func (m *clientModel) liveObjects() []uint64 {
	out := make([]uint64, 0, hubsPerClient*(slotsPerHub+1)+1)
	out = append(out, m.hubs...)
	for _, slots := range m.leaf {
		out = append(out, slots...)
	}
	if m.newLeaf != 0 && m.step == 1 {
		out = append(out, m.newLeaf)
	}
	return out
}
