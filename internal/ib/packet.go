package ib

import (
	"fmt"

	"ibasim/internal/sim"
)

// Packet is one IBA data packet traversing the simulated subnet. The
// simulator works at packet granularity (virtual cut-through forwards
// and buffers whole packets), so no flit structure is modelled.
type Packet struct {
	ID uint64 // globally unique, for tracing and loss accounting

	Src int // source host
	Dst int // destination host

	SLID LID // source port LID (base address of the source)
	DLID LID // destination LID; low bit encodes the adaptivity request
	SL   int // service level (selects the VL via the SLtoVL table)

	Size int // bytes on the wire

	// SeqNo numbers packets per (Src, Dst) flow in generation order;
	// deterministic packets must be delivered in SeqNo order.
	SeqNo uint64

	// Adaptive mirrors DLID's low bit for convenience; it is set by
	// the traffic generator and must agree with the address plan.
	Adaptive bool

	CreatedAt   sim.Time // when the generator produced it
	InjectedAt  sim.Time // when the source CA started transmitting it
	DeliveredAt sim.Time // when the tail reached the destination CA

	Hops int // switches traversed so far

	// Attempts counts fault-recovery retries: each time the fabric
	// drops the packet and the source re-injects it, Attempts grows by
	// one. Zero for packets that never met a fault.
	Attempts int
}

// Credits returns the flow-control credits the packet consumes.
func (p *Packet) Credits() int { return Credits(p.Size) }

// Latency returns the end-to-end packet latency: generation at the
// source host to delivery at the destination end node, matching the
// paper's latency definition (footnote 4).
func (p *Packet) Latency() sim.Time { return p.DeliveredAt - p.CreatedAt }

// String identifies the packet for traces and test failures.
func (p *Packet) String() string {
	mode := "det"
	if p.Adaptive {
		mode = "adp"
	}
	return fmt.Sprintf("pkt#%d %d->%d %s %dB seq=%d", p.ID, p.Src, p.Dst, mode, p.Size, p.SeqNo)
}
