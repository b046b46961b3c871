#pragma once

#include <cstdint>

/// \file hedge.h
/// Hedged-read knobs. A hedged read races a second replica after the
/// primary has been quiet for `deadline_us`; the first arm to succeed is
/// adopted and the loser is discarded without touching run metrics or
/// emitting records. Both SMPE engines run the one continuation protocol in
/// builtin_derefs.cc: the deadline is an AsyncRuntime timer, and each arm
/// in flight pins the runtime (RetainIo) until its possibly late
/// completion has landed. The async engine's
/// runtime is the run; the threaded engine's is a driver local to the
/// task, on the task's own pool thread. No thread is spawned per hedge.

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
