// Serialization helpers for GA runtime state (campaign checkpoints).
//
// Everything is line-oriented '#'-keyed text in the same family as trace_io
// and the elite-archive format, so checkpoint files stay greppable. The
// writers append to the enclosing file's record::Writer; the readers take
// its record::Reader, which builds every framing error; an embedded genome
// is read in place from that reader up to its `# end member` line. Doubles
// are written as %.17g through std::to_chars, which round-trips IEEE-754
// exactly — resumed campaigns must be bit-identical.
#pragma once

#include "fuzz/fuzzer.h"
#include "util/error.h"
#include "util/record.h"

namespace ccfuzz::fuzz::state_io {

/// Writes a behavior descriptor as six space-led fields (` <transitions>
/// <rtt_spread> <max_backoff> <cwnd_span> <event_mask> <cca_states>`), for
/// a record line that carries one.
void write_descriptor(record::Writer& w, const coverage::BehaviorDescriptor& d);

/// Reads the six fields written by write_descriptor from the current line.
void read_descriptor(record::Reader& r, coverage::BehaviorDescriptor& d);

/// Writes an Evaluation as three '#'-keyed lines (`# eval`, `# cov`,
/// `# covmap`).
void write_eval(record::Writer& w, const Evaluation& e);

/// Reads the three lines written by write_eval.
Error read_eval(record::Reader& r, Evaluation& e);

/// Writes a population member: `# member <evaluated> <novelty>`, the
/// evaluation, the genome as an embedded trace_io block, `# end member`.
/// An unevaluated member's evaluation is written as a default Evaluation,
/// without reading `m.eval`: a campaign checkpoints while the pool fills
/// the evaluations of the next generation's members in place.
void write_member(record::Writer& w, const Member& m);

/// Reads a member block, genome included, through its `# end member` line.
Error read_member(record::Reader& r, Member& m);

/// Writes one GenStats as a single `# gen` line.
void write_genstats(record::Writer& w, const GenStats& gs);

/// Reads the `# gen` line written by write_genstats.
Error read_genstats(record::Reader& r, GenStats& gs);

}  // namespace ccfuzz::fuzz::state_io
