package ib

import "fmt"

// SLtoVLTable is the IBA table that maps (input port, output port,
// service level) to the virtual lane a packet uses on the next link.
// The paper's mechanism keeps this table untouched: the adaptive and
// escape queues live inside a single VL's buffer, so VL selection
// stays exactly as the spec defines it.
type SLtoVLTable struct {
	numPorts int
	numSLs   int
	vl       []uint8 // [inPort][outPort][sl] flattened; every VL is below MaxVLs
}

// NewSLtoVLTable builds a table for a switch with numPorts ports,
// mapping every (in, out, sl) to sl modulo numVLs — the identity-style
// default an unconfigured subnet uses. Entries can be overridden with
// Set for QoS experiments.
func NewSLtoVLTable(numPorts, numSLs, numVLs int) (*SLtoVLTable, error) {
	if numPorts <= 0 || numSLs <= 0 || numVLs <= 0 || numVLs > MaxVLs {
		return nil, fmt.Errorf("ib: bad SLtoVL shape ports=%d sls=%d vls=%d", numPorts, numSLs, numVLs)
	}
	t := &SLtoVLTable{
		numPorts: numPorts,
		numSLs:   numSLs,
		vl:       make([]uint8, numPorts*numPorts*numSLs),
	}
	for in := 0; in < numPorts; in++ {
		for out := 0; out < numPorts; out++ {
			for sl := 0; sl < numSLs; sl++ {
				t.vl[t.index(in, out, sl)] = uint8(sl % numVLs)
			}
		}
	}
	return t, nil
}

func (t *SLtoVLTable) index(in, out, sl int) int {
	return (in*t.numPorts+out)*t.numSLs + sl
}

func (t *SLtoVLTable) check(in, out, sl int) error {
	if in < 0 || in >= t.numPorts || out < 0 || out >= t.numPorts || sl < 0 || sl >= t.numSLs {
		return fmt.Errorf("ib: SLtoVL lookup (%d,%d,%d) out of range", in, out, sl)
	}
	return nil
}

// Set overrides the VL for one (input port, output port, SL) triple.
func (t *SLtoVLTable) Set(in, out, sl, vl int) error {
	if err := t.check(in, out, sl); err != nil {
		return err
	}
	if vl < 0 || vl >= MaxVLs {
		return fmt.Errorf("ib: VL %d out of range", vl)
	}
	t.vl[t.index(in, out, sl)] = uint8(vl)
	return nil
}

// VL returns the virtual lane for a packet with the given service
// level crossing from input port in to output port out.
func (t *SLtoVLTable) VL(in, out, sl int) (int, error) {
	if err := t.check(in, out, sl); err != nil {
		return 0, err
	}
	return int(t.vl[t.index(in, out, sl)]), nil
}
