package fabric

import (
	"fmt"

	"ibasim/internal/ib"
	"ibasim/internal/prof"
	"ibasim/internal/sim"
)

// Host models one end node's channel adapter port: an injection queue
// feeding the link to its switch, and a sink that accounts deliveries.
// Source queues are unbounded — the paper measures accepted traffic
// versus offered load, so injection backpressure shows up as queueing
// delay rather than drops. A queued packet costs one 32-byte send
// record (about 33 bytes with its block's share): the ib.Packet is
// carved from the network's slab only when it starts transmitting (or
// times out at the head), so a saturated source's backlog holds no
// packets and no pointers.
type Host struct {
	net *Network
	id  int

	out *outPort // link toward the attached switch

	// The source queue is a FIFO of send records in a chain of
	// fixed-size blocks: the head record is qhead.recs[qhi], the next
	// free slot qtail.recs[qti]. A consumed head block goes back to the
	// network's freelist; an emptied queue keeps its one block, so an
	// unsaturated host that oscillates between empty and shallow never
	// touches the freelist.
	qhead, qtail *recBlock
	qhi, qti     int
	qlen         int
	injPending   bool

	// injectFn is the host's recurring delay-0 event closure, bound
	// once at wiring so scheduling it never allocates.
	injectFn func()

	// timeoutFn and timeoutArmed implement the send timeout of
	// Cfg.Retry: at most one expiry check is in flight, armed for the
	// deadline of the current queue head. Inactive (never scheduled)
	// when Retry.SendTimeout is 0.
	timeoutFn    func()
	timeoutArmed sim.Time // deadline the pending check covers; 0 = none

	// nextSeq numbers packets per destination (indexed by destination
	// host ID), so the deliver side can verify in-order arrival of
	// deterministic traffic. A dense slice: every host eventually talks
	// to most destinations under the paper's traffic patterns, and the
	// per-packet map hash was measurable.
	nextSeq []uint64

	// Injected and Delivered count packets for quick accounting;
	// detailed metrics hang off the Network callbacks.
	Injected  uint64
	Delivered uint64
}

// sendRecord is one queued packet. A fresh record holds everything
// decided when the packet was generated — ID, creation time,
// destination, size, DLID, adaptive flag — and becomes an ib.Packet
// when it leaves the queue. A requeued record stands for a packet that
// already exists (a fault-recovery retry): held is the key that
// Network.hold gave it, and size and sl mirror the packet so the
// injection check reads the record alone. Pointer-free, so record blocks are
// never scanned by the garbage collector.
type sendRecord struct {
	id       uint64
	at       sim.Time // creation time, or when a requeued packet re-entered the queue
	dst      int32
	size     int32
	held     int32 // Network.hold key of a requeued packet; 0 for a fresh record
	dlid     ib.LID
	sl       uint8
	adaptive bool
}

// recBlockLen is the record capacity of one queue block: 31 records
// plus the chain pointer fill the 1 KiB size class exactly.
const recBlockLen = 31

// recBlock is one fixed-size block of a source queue. The chain
// pointer comes first, so the collector scans 8 bytes of it.
type recBlock struct {
	next *recBlock
	recs [recBlockLen]sendRecord
}

// ID returns the host's global index.
func (h *Host) ID() int { return h.id }

// Engine returns the simulation engine this host's events run on.
// Traffic generators schedule injection events on it.
func (h *Host) Engine() *sim.Engine { return h.net.Engine }

// QueueLen returns the number of packets waiting in the source queue.
func (h *Host) QueueLen() int { return h.qlen }

// HeadID returns the ID of the packet at the source-queue head, or 0
// when the queue is empty (watchdog progress probe).
func (h *Host) HeadID() uint64 {
	if h.qlen == 0 {
		return 0
	}
	return h.qhead.recs[h.qhi].id
}

// qPush appends a record to the source queue, chaining a new block
// when the tail block is full.
func (h *Host) qPush(r sendRecord) {
	if h.qtail == nil || h.qti == recBlockLen {
		b := h.net.getRecBlock()
		if h.qtail == nil {
			h.qhead, h.qhi = b, 0
		} else {
			h.qtail.next = b
		}
		h.qtail, h.qti = b, 0
	}
	h.qtail.recs[h.qti] = r
	h.qti++
	h.qlen++
}

// qPop removes and returns the head record; the caller must have
// checked qlen > 0.
func (h *Host) qPop() sendRecord {
	r := h.qhead.recs[h.qhi]
	h.qhi++
	h.qlen--
	switch {
	case h.qlen == 0:
		h.qhi, h.qti = 0, 0 // qhead == qtail: reuse the block in place
	case h.qhi == recBlockLen:
		b := h.qhead
		h.qhead, h.qhi = b.next, 0
		h.net.putRecBlock(b)
	}
	return r
}

// packetOf turns a record leaving the queue into its packet: the held
// packet of a requeued record, or a new one carved from the slab.
//
// A fresh packet's SeqNo is assigned here rather than at generation.
// That yields the same numbers: a flow's fresh records all pass
// through this one FIFO, so they leave it — injected or timed out —
// in generation order, and requeued packets keep the number they got
// when they first left.
func (h *Host) packetOf(r *sendRecord) *ib.Packet {
	n := h.net
	if r.held != 0 {
		return n.unhold(r.held)
	}
	pkt := n.getPacket()
	*pkt = ib.Packet{
		ID:        r.id,
		Src:       h.id,
		Dst:       int(r.dst),
		SLID:      n.Plan.BaseLID(h.id),
		DLID:      r.dlid,
		Size:      int(r.size),
		SeqNo:     h.nextSeq[r.dst],
		Adaptive:  r.adaptive,
		CreatedAt: r.at,
	}
	h.nextSeq[r.dst]++
	return pkt
}

// Send generates a packet of size bytes from this host to host dst and
// queues it for injection (see Network.newRecord for the addressing).
// Only a send record is queued; the packet itself exists from
// injection to delivery.
func (h *Host) Send(dst, size int, adaptive bool) {
	n := h.net
	if uint(dst) >= uint(len(h.nextSeq)) {
		panic(fmt.Sprintf("fabric: host %d sends to host %d of %d", h.id, dst, len(h.nextSeq)))
	}
	r := n.newRecord(dst, size, adaptive)
	h.qPush(r)
	if n.OnCreated != nil {
		n.OnCreated(r.id, h.id, dst, r.adaptive, r.at)
	}
	h.armSendTimeout()
	// The injection analog of the hop-fusion fast path: Send runs
	// inside some dispatched event (a traffic-generator firing), and
	// when that event is alone on its timestamp the delay-0 injection
	// pass kick would schedule is popped immediately next — so it runs
	// inline instead. Quiescence also implies injPending is false.
	if n.fuse && n.Engine.Quiescent() {
		n.fusedKicks++
		if prof.HotPhasesEnabled() {
			prof.Phase(prof.PhaseFused, h.tryInject)
		} else {
			h.tryInject()
		}
		return
	}
	h.kick()
}

// requeue re-enters a packet the fabric dropped (fault-recovery
// retry): it keeps its identity and SeqNo but restarts its journey.
// The packet waits in Network.held; its record names the slot.
func (h *Host) requeue(pkt *ib.Packet) {
	pkt.Hops = 0
	h.qPush(sendRecord{
		id:   pkt.ID,
		at:   h.net.Engine.Now(),
		size: int32(pkt.Size),
		sl:   uint8(pkt.SL),
		held: h.net.hold(pkt),
	})
	h.armSendTimeout()
	h.kick()
}

// kick schedules an injection attempt at the current time (coalesced).
func (h *Host) kick() {
	if h.injPending {
		return
	}
	h.injPending = true
	h.net.Engine.Schedule(0, h.injectFn)
}

// inlinePass runs the injection attempt synchronously — the hop-fusion
// analog of Switch.inlinePass (see pool.go).
func (h *Host) inlinePass() { h.tryInject() }

// finishWiring binds the host's recurring event closures once the
// link to its switch exists.
func (h *Host) finishWiring() {
	h.injectFn = func() {
		h.injPending = false
		h.tryInject()
	}
	h.timeoutFn = func() {
		h.timeoutArmed = 0
		h.expireHead()
		h.armSendTimeout()
	}
}

// armSendTimeout schedules (at most one) expiry check for the current
// queue head's deadline. No-op when the timeout is disabled or a check
// already covers an earlier-or-equal deadline.
func (h *Host) armSendTimeout() {
	to := h.net.Cfg.Retry.SendTimeout
	if to <= 0 || h.qlen == 0 {
		return
	}
	deadline := h.qhead.recs[h.qhi].at + to
	if h.timeoutArmed != 0 && h.timeoutArmed <= deadline {
		return
	}
	h.timeoutArmed = deadline
	now := h.net.Engine.Now()
	delay := deadline - now
	if delay < 0 {
		delay = 0
	}
	h.net.Engine.Schedule(delay, h.timeoutFn)
}

// expireHead drops every queue-head packet whose send deadline has
// passed (the link stayed down or starved past Retry.SendTimeout). A
// fresh record becomes its packet first, so OnDropped and the retry
// path see a real packet.
func (h *Host) expireHead() {
	to := h.net.Cfg.Retry.SendTimeout
	if to <= 0 {
		return
	}
	now := h.net.Engine.Now()
	for h.qlen > 0 && now-h.qhead.recs[h.qhi].at >= to {
		r := h.qPop()
		h.net.dropPacket(h.packetOf(&r), DropTimeout)
	}
}

// tryInject starts transmitting the queue head when the link is free
// and the switch's input buffer has room for the whole packet.
func (h *Host) tryInject() {
	now := h.net.Engine.Now()
	if h.qlen == 0 || !h.out.free(now) {
		return
	}
	head := &h.qhead.recs[h.qhi]
	vl := int(head.sl) % h.net.Cfg.NumVLs
	credits := ib.Credits(int(head.size))
	if !h.net.Cfg.Split.CanUseEscape(h.out.credits[vl], credits) {
		return
	}
	r := h.qPop()
	pkt := h.packetOf(&r)
	h.out.credits[vl] -= credits
	ser := ib.SerializationTime(pkt.Size)
	h.out.busyUntil = now + ser
	h.out.busyAccum += ser
	h.out.txPackets++
	pkt.InjectedAt = now
	h.Injected++
	h.net.moved++

	h.net.scheduleReceive(ib.PropagationDelay, h.out.peerSwitch, h.out.peerPort, vl, pkt)
	h.net.scheduleHostKick(ser, h) // the link is now busy; the ser-kick continues the queue
}

// deliver sinks a packet arriving at this host.
func (h *Host) deliver(pkt *ib.Packet) {
	if pkt.Dst != h.id {
		panic(fmt.Sprintf("fabric: packet %v delivered to host %d", pkt, h.id))
	}
	pkt.DeliveredAt = h.net.Engine.Now()
	h.Delivered++
	h.net.moved++
	if h.net.OnDelivered != nil {
		h.net.OnDelivered(pkt)
	}
}
