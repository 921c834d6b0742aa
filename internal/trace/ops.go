package trace

// OpSink extends Sink with the operation-level events a dependency-graph
// recorder needs beyond the message stream: which queued message each
// receive actually consumed. The runtime in package par feeds an OpSink by
// type assertion on Options.Trace, so ordinary sinks such as Stream pay
// nothing for the extension's existence.
//
// The msg argument of RecordRecv is the zero-based index of the
// corresponding RecordMessage call: in a fault-free run without the
// reliable transport, every Env.Send triggers exactly one synchronous
// RecordMessage, so the i-th RecordMessage call is the i-th send of the
// run and the index names the message unambiguously. The runtime refuses
// to attach an OpSink to runs where that correspondence breaks (fault
// injection, the reliable transport, a regime, or a multi-hop wide-area
// graph).
type OpSink interface {
	Sink
	// RecordRecv reports that rank's receive consumed message msg. It is
	// invoked at the virtual time the receive returns, so the combined
	// stream of RecordSpan/RecordMessage/RecordRecv calls arrives in
	// simulation execution order — a topological order of the dependency
	// graph. from and tag are the receive's selection pattern (from < 0
	// matches any sender; tag is the runtime's tag value, with its
	// AnyTag sentinel passed through verbatim), which lets an evaluator
	// re-derive the matching under different network timings. poll marks
	// a successful non-blocking receive.
	RecordRecv(rank int, msg int64, from int, tag int64, poll bool)
	// RecordSendTag supplies the application-level tag of the next
	// message: the runtime invokes it immediately before the send that
	// triggers the corresponding RecordMessage call (which reports only
	// network-level fields — the network layer does not know tags).
	RecordSendTag(tag int64)
}
