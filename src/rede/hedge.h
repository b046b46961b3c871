#pragma once

#include <cstdint>

/// \file hedge.h
/// Hedged-read knobs. A hedged read races a second replica after the
/// primary has been quiet for `deadline_us`; the first arm to succeed is
/// adopted and the loser is discarded without touching run metrics or
/// emitting records. The SMPE engine runs the continuation protocol in
/// builtin_derefs.cc: the deadline is a timer of the run's AsyncRuntime,
/// and each arm in flight pins the run (RetainIo) until its possibly late
/// completion has landed — the run, not a slot of the per-node cap, so a
/// task frees its slot when it finishes, its loser arm still in flight. No
/// thread is spawned per hedge.

namespace lakeharbor::rede {

/// Per-run hedging knobs (SmpeOptions::hedge). Hedging only applies to
/// point dereferences against files with >= 2 live replicas, and only when
/// the executor supplies an AsyncRuntime: deterministic replay, the
/// partitioned executor and direct Execute calls never race.
struct HedgeOptions {
  bool enabled = false;
  /// How long the primary read may run before a hedge is launched against
  /// a different replica. 0 hedges immediately: the second arm is sent
  /// right after the primary, so every eligible read races (useful in
  /// tests). With timing simulation off, reads complete in microseconds and
  /// virtually never hedge at a nonzero deadline.
  uint64_t deadline_us = 2000;
};

}  // namespace lakeharbor::rede
