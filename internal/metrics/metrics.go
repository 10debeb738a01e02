// Package metrics accounts simulation results the way the paper
// reports them: average packet latency (generation to delivery, ns)
// versus accepted traffic (bytes per ns per switch), with a warm-up
// window excluded from both.
package metrics

import (
	"fmt"
	"math"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/reorder"
	"ibasim/internal/sim"
)

// LatencyStats accumulates streaming latency moments.
type LatencyStats struct {
	Count uint64
	Sum   float64
	SumSq float64
	Min   sim.Time
	Max   sim.Time
}

// Add records one latency sample.
func (s *LatencyStats) Add(l sim.Time) {
	if s.Count == 0 || l < s.Min {
		s.Min = l
	}
	if l > s.Max {
		s.Max = l
	}
	s.Count++
	f := float64(l)
	s.Sum += f
	s.SumSq += f * f
}

// Avg returns the mean latency in nanoseconds (0 with no samples).
func (s *LatencyStats) Avg() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Std returns the sample standard deviation.
func (s *LatencyStats) Std() float64 {
	if s.Count < 2 {
		return 0
	}
	n := float64(s.Count)
	v := (s.SumSq - s.Sum*s.Sum/n) / (n - 1)
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Collector hooks a network's packet callbacks and accumulates the
// paper's two observables over the measurement window. Packets
// created before the warm-up end are ignored entirely; accepted
// traffic counts bytes delivered inside [WarmupEnd, MeasureEnd].
type Collector struct {
	WarmupEnd  sim.Time
	MeasureEnd sim.Time

	numSwitches int
	engine      *sim.Engine

	Latency        LatencyStats
	DeliveredBytes int64
	DeliveredCount uint64
	CreatedCount   uint64

	// Per-mode latency split, for analyzing mixed workloads.
	LatencyAdaptive      LatencyStats
	LatencyDeterministic LatencyStats

	// Hist buckets every measured latency for quantile reporting.
	Hist Histogram

	// Out-of-order accounting (§1: adaptive routing trades in-order
	// delivery for throughput; this quantifies the trade). A delivery
	// is out of order when a higher SeqNo of the same (src, dst) flow
	// was delivered earlier.
	OutOfOrder      uint64
	highestSeq      map[[2]int]uint64
	OrderedDelivery uint64

	// highestSeqDense replaces the highestSeq map when Attach learns
	// the host count: slot src*numHosts+dst holds the flow's highest
	// delivered SeqNo plus one (zero = flow unseen). The order check
	// runs on every delivery; the dense form drops the per-delivery map
	// hash and growth churn. numHosts == 0 falls back to the map.
	highestSeqDense []uint64
	numHosts        int

	// Reorder, when set before Attach, simulates destination-side
	// reordering (§1's sketch): every delivery passes through the
	// buffer and its occupancy/delay statistics quantify what
	// restoring order on top of adaptive routing would cost.
	Reorder *reorder.Buffer

	// Dropped counts packets the fabric discarded, by reason — the
	// degraded-mode view a fault campaign reports. All zero on a
	// healthy run.
	Dropped [fabric.NumDropReasons]uint64
}

// DroppedTotal sums the per-reason drop counters.
func (c *Collector) DroppedTotal() uint64 {
	var t uint64
	for _, v := range c.Dropped {
		t += v
	}
	return t
}

// Attach registers the collector on the network. It must be called
// before traffic starts; it chains with (replaces) any previous
// callbacks.
func (c *Collector) Attach(net *fabric.Network) {
	c.numSwitches = net.Topo.NumSwitches
	c.engine = net.Engine
	c.numHosts = net.Topo.NumHosts()
	c.highestSeqDense = make([]uint64, c.numHosts*c.numHosts)
	net.OnCreated = c.onCreated
	net.OnDelivered = c.onDelivered
	net.OnDropped = c.onDropped
}

// Finalize closes the reorder buffer's peak accounting. Call once,
// after the run completes and before reading results.
func (c *Collector) Finalize() {
	if c.Reorder != nil {
		c.Reorder.Finalize()
	}
}

func (c *Collector) onCreated(p *ib.Packet) {
	if p.CreatedAt >= c.WarmupEnd && p.CreatedAt < c.MeasureEnd {
		c.CreatedCount++
	}
}

func (c *Collector) onDropped(p *ib.Packet, reason fabric.DropReason) {
	if reason >= 0 && int(reason) < len(c.Dropped) {
		c.Dropped[reason]++
	}
}

func (c *Collector) onDelivered(p *ib.Packet) {
	now := p.DeliveredAt
	if now >= c.WarmupEnd && now < c.MeasureEnd {
		c.DeliveredBytes += int64(p.Size)
		c.DeliveredCount++
	}
	// Latency is attributed to packets *created* in the window so a
	// tail of slow packets is not silently dropped from the average.
	if p.CreatedAt >= c.WarmupEnd && p.CreatedAt < c.MeasureEnd {
		l := p.Latency()
		c.Latency.Add(l)
		c.Hist.Add(l)
		if p.Adaptive {
			c.LatencyAdaptive.Add(l)
		} else {
			c.LatencyDeterministic.Add(l)
		}
	}
	// Order tracking covers every delivery (not only the window) so
	// flows spanning the warm-up boundary are judged correctly.
	if c.numHosts > 0 {
		di := p.Src*c.numHosts + p.Dst
		if last := c.highestSeqDense[di]; last != 0 && p.SeqNo < last-1 {
			c.OutOfOrder++
		} else {
			c.highestSeqDense[di] = p.SeqNo + 1
			c.OrderedDelivery++
		}
	} else {
		if c.highestSeq == nil {
			c.highestSeq = make(map[[2]int]uint64)
		}
		key := [2]int{p.Src, p.Dst}
		if last, ok := c.highestSeq[key]; ok && p.SeqNo < last {
			c.OutOfOrder++
		} else {
			c.highestSeq[key] = p.SeqNo
			c.OrderedDelivery++
		}
	}
	if c.Reorder != nil {
		c.Reorder.Deliver(p, now)
	}
}

// OutOfOrderFraction returns the share of deliveries that arrived
// after a later packet of their flow.
func (c *Collector) OutOfOrderFraction() float64 {
	total := c.OutOfOrder + c.OrderedDelivery
	if total == 0 {
		return 0
	}
	return float64(c.OutOfOrder) / float64(total)
}

// AcceptedPerSwitch returns the accepted traffic in bytes/ns/switch
// over the measurement window.
func (c *Collector) AcceptedPerSwitch() float64 {
	window := float64(c.MeasureEnd - c.WarmupEnd)
	if window <= 0 || c.numSwitches == 0 {
		return 0
	}
	return float64(c.DeliveredBytes) / window / float64(c.numSwitches)
}

// String summarizes the collected window.
func (c *Collector) String() string {
	return fmt.Sprintf("accepted=%.5f B/ns/sw avgLat=%.0f ns (n=%d)",
		c.AcceptedPerSwitch(), c.Latency.Avg(), c.Latency.Count)
}
