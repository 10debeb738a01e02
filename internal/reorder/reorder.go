// Package reorder implements destination-side packet reordering, the
// companion mechanism §1 of the paper sketches for traffic that needs
// in-order delivery but still wants adaptive routing: "in-order
// packets could also use adaptive routing if packets were reordered at
// the destination host before being delivered."
//
// A Buffer tracks, per (source, destination) flow, the next expected
// sequence number; packets arriving early are parked until their
// predecessors show up. The cost of adaptivity for ordered traffic is
// then visible as buffer occupancy and added delivery latency, both of
// which the Buffer reports.
package reorder

import (
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

type flowKey struct{ src, dst int }

// Buffer reassembles sequence order per flow.
type Buffer struct {
	expected map[flowKey]uint64
	held     map[flowKey]map[uint64]*ib.Packet

	// expectedDense replaces the expected map when the host count is
	// known up front (NewBufferForHosts): one slot per (src, dst) pair,
	// indexed src*numHosts+dst. The expected counter is read and
	// written on every delivery, and at a sweep's packet rates the map
	// hash and growth churn were a measurable slice of the run; the
	// held/arrival maps stay maps — they are only touched by the parked
	// minority. numHosts == 0 means the map representation is in use.
	expectedDense []uint64
	numHosts      int

	// Stats.
	Parked       uint64 // packets that had to wait
	PassedThru   uint64 // packets released immediately
	CurrentHeld  int
	PeakHeld     int      // peak end-of-timestamp occupancy; final after Finalize
	ReorderDelay sim.Time // total extra waiting summed over parked packets

	// Peak occupancy is sampled once per simulated timestamp, at the
	// occupancy left after the last delivery of that timestamp — not
	// at every park. Mid-timestamp transients depend on the dispatch
	// order of equal-time deliveries at different hosts;
	// end-of-timestamp occupancy does not.
	lastAt  sim.Time
	hasLast bool

	arrival map[uint64]sim.Time // packet ID -> arrival time, for delay accounting

	// out is the release-run scratch returned by Deliver, reused
	// across calls so an in-order delivery allocates nothing.
	out []*ib.Packet
}

// NewBuffer returns an empty reorder buffer.
func NewBuffer() *Buffer {
	return &Buffer{
		expected: make(map[flowKey]uint64),
		held:     make(map[flowKey]map[uint64]*ib.Packet),
		arrival:  make(map[uint64]sim.Time),
	}
}

// NewBufferForHosts returns an empty reorder buffer for a subnet of
// numHosts hosts, storing the per-flow expected counters densely (see
// Buffer.expectedDense). Src and Dst of every delivered packet must be
// below numHosts.
func NewBufferForHosts(numHosts int) *Buffer {
	return &Buffer{
		expectedDense: make([]uint64, numHosts*numHosts),
		numHosts:      numHosts,
		held:          make(map[flowKey]map[uint64]*ib.Packet),
		arrival:       make(map[uint64]sim.Time),
	}
}

// closeStep samples the occupancy at the end of the timestamp that
// just finished (lastAt).
func (b *Buffer) closeStep() {
	if b.CurrentHeld > b.PeakHeld {
		b.PeakHeld = b.CurrentHeld
	}
}

// Deliver accepts a packet arriving at the destination at time now and
// returns the packets releasable in order (possibly none, possibly a
// run ending with previously parked successors). Packets of a flow
// must carry the per-flow SeqNo the fabric assigns at injection. The
// returned slice is reused by the next Deliver call; callers that need
// to keep it must copy. Call Finalize after the last delivery to close
// the peak-occupancy accounting.
func (b *Buffer) Deliver(p *ib.Packet, now sim.Time) []*ib.Packet {
	if b.hasLast && now != b.lastAt {
		b.closeStep()
	}
	b.lastAt, b.hasLast = now, true
	key := flowKey{src: p.Src, dst: p.Dst}
	var next uint64
	di := -1
	if b.numHosts > 0 {
		di = p.Src*b.numHosts + p.Dst
		next = b.expectedDense[di]
	} else {
		next = b.expected[key]
	}
	if p.SeqNo != next {
		// Early: park it. (Late duplicates cannot happen — the fabric
		// neither drops nor duplicates — so SeqNo > next always.)
		if b.held[key] == nil {
			b.held[key] = make(map[uint64]*ib.Packet)
		}
		b.held[key][p.SeqNo] = p
		b.arrival[p.ID] = now
		b.Parked++
		b.CurrentHeld++
		return nil
	}
	// In order: release it and any parked run behind it.
	out := append(b.out[:0], p)
	b.PassedThru++
	next++
	for {
		q, ok := b.held[key][next]
		if !ok {
			break
		}
		delete(b.held[key], next)
		b.CurrentHeld--
		b.ReorderDelay += now - b.arrival[q.ID]
		delete(b.arrival, q.ID)
		out = append(out, q)
		next++
	}
	if di >= 0 {
		b.expectedDense[di] = next
	} else {
		b.expected[key] = next
	}
	b.out = out
	return out
}

// Finalize closes the last timestamp's occupancy sample. Idempotent;
// PeakHeld is complete afterwards.
func (b *Buffer) Finalize() {
	if b.hasLast {
		b.closeStep()
		b.hasLast = false
	}
}

// Held returns the number of packets currently parked.
func (b *Buffer) Held() int { return b.CurrentHeld }

// AvgReorderDelay returns the mean extra waiting of parked packets.
func (b *Buffer) AvgReorderDelay() float64 {
	if b.Parked == 0 {
		return 0
	}
	return float64(b.ReorderDelay) / float64(b.Parked)
}

// ParkedFraction returns the share of deliveries that had to wait.
func (b *Buffer) ParkedFraction() float64 {
	total := b.Parked + b.PassedThru
	if total == 0 {
		return 0
	}
	return float64(b.Parked) / float64(total)
}
