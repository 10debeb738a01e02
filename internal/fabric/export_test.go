package fabric

// QueueWithSL queues an sl-service-level packet of size bytes from h
// to host dst, for external tests that need traffic on more than one
// VL (Host.Send always uses SL 0). The packet is built as Host.Send
// plus injection would build it and enters the queue the way a
// retried packet does.
func QueueWithSL(h *Host, dst, size, sl int, adaptive bool) {
	pkt := testPacket(h.net, h.id, dst, size, adaptive)
	pkt.SL = sl
	h.requeue(pkt)
}
