#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

/// \file fault.h
/// Deterministic, seeded fault injection for the simulated devices. Every
/// device operation draws its fate from a counter-based hash stream
/// (splitmix64 over the operation index), NOT from shared mutable RNG
/// state: operation i of a device fails iff hash(seed, i) says so, so a
/// fixed seed replays the exact same fault pattern — the property the
/// failure-semantics tests rely on for deterministic replay.

namespace lakeharbor::sim {

/// Fault knobs of one device. All-zero (the default) injects nothing.
struct FaultOptions {
  /// Probability that an operation fails with an injected transient error.
  double fault_rate = 0.0;
  /// Share of injected faults surfacing as kUnavailable; the rest surface
  /// as kIoError. Both are retryable (Status::IsRetryable).
  double unavailable_fraction = 0.0;
  /// Seed of the deterministic fault stream.
  uint64_t seed = 0;
  /// Probability that a (successful) operation suffers a latency spike.
  double latency_spike_rate = 0.0;
  /// Service-time multiplier of a spiked operation (timing mode only).
  double latency_spike_multiplier = 10.0;
  /// Probability that a read that SUCCEEDS returns silently corrupted
  /// payload bytes (bit-rot): the device reports OK, the data is wrong.
  /// Only the integrity layer's checksums can tell. Drawn from the same
  /// counter stream as faults/spikes — a fixed seed replays the exact
  /// corruption pattern, and corruption is only assessed for operations
  /// that did not fault, so enabling it never perturbs which operations
  /// fault or spike under the same seed.
  double corruption_rate = 0.0;

  bool enabled() const {
    return fault_rate > 0.0 || latency_spike_rate > 0.0 ||
           corruption_rate > 0.0;
  }
};

/// Out-of-band verdict of one successful read: whether the device silently
/// corrupted the returned payload, and the deterministic entropy that picks
/// the flipped bit. Devices report it alongside Status::OK — the whole point
/// of bit-rot is that the read itself does not fail. Callers that do not
/// care (writes, cost-only probes) pass nullptr and stay oblivious.
struct ReadOutcome {
  bool corrupted = false;
  uint64_t corruption_entropy = 0;

  void MergeFrom(const ReadOutcome& other) {
    if (other.corrupted && !corrupted) {
      corrupted = true;
      corruption_entropy = other.corruption_entropy;
    }
  }
};

/// The per-device injector. Thread-safe: concurrent operations draw
/// distinct operation indexes from an atomic counter and hash them
/// independently. Reconfiguring resets the operation stream (replay);
/// an outage overrides everything with kUnavailable until lifted.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultOptions& options) { Configure(options); }

  /// Install new knobs and rewind the operation stream to index 0, so a
  /// fixed seed deterministically replays its fault pattern.
  ///
  /// The knobs are published as ONE snapshot behind a tiny mutex (the
  /// critical section is a 40-byte struct copy): an Assess racing a
  /// Configure sees either the old knob set or the new one in full, never
  /// a torn half-old/half-new mix (e.g. the new fault_rate with the old
  /// unavailable_fraction). The operation counter is reset independently —
  /// a concurrent Assess may draw an old stream index against the new
  /// knobs, which only shifts WHICH deterministic fate it draws, never
  /// mixes knob values.
  ///
  /// The `armed` flag (options.enabled()) is published under the same
  /// mutex. An unarmed injector — the default, and every all-zero knob set
  /// — answers Assess from the flag alone: no lock, no operation index.
  void Configure(const FaultOptions& options) {
    {
      std::lock_guard<std::mutex> lock(knobs_mutex_);
      knobs_ = options;
      armed_.store(options.enabled(), std::memory_order_release);
    }
    ops_.store(0, std::memory_order_relaxed);
  }

  /// Hard outage window: while down, every operation fails kUnavailable.
  void SetOutage(bool down) {
    outage_.store(down, std::memory_order_relaxed);
  }
  bool outage() const { return outage_.load(std::memory_order_relaxed); }

  /// What the injector decided for one device operation.
  struct Decision {
    Status status;                 ///< OK, or the injected failure
    double latency_scale = 1.0;    ///< >1 when a latency spike was injected
    /// Silent bit-rot verdict for a read that succeeded: the device will
    /// return OK but the payload bytes must be perturbed. `entropy` is a
    /// deterministic per-operation hash the corruptor uses to pick which
    /// bit to flip.
    bool corrupted = false;
    uint64_t corruption_entropy = 0;

    bool faulted() const { return !status.ok(); }
    bool spiked() const { return latency_scale > 1.0; }
  };

  /// Draw the fate of the next operation on `device` ("disk"/"network").
  /// Loads the knob snapshot exactly once, so every field consulted for
  /// this decision comes from the same Configure call. Unarmed, it returns
  /// the default decision without locking and without consuming an
  /// operation index.
  Decision Assess(const char* device) {
    Decision decision;
    if (outage_.load(std::memory_order_relaxed)) {
      decision.status = Status::Unavailable(std::string(device) +
                                            " outage: node is down");
      return decision;
    }
    if (!armed_.load(std::memory_order_acquire)) return decision;
    FaultOptions knobs;
    {
      std::lock_guard<std::mutex> lock(knobs_mutex_);
      knobs = knobs_;
    }
    // A Configure that disarmed between the flag and the lock.
    if (!knobs.enabled()) return decision;

    const uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t seed = knobs.seed;
    if (knobs.fault_rate > 0.0 &&
        U01(Mix(seed, op, kFaultSalt)) < knobs.fault_rate) {
      const bool unavailable =
          U01(Mix(seed, op, kKindSalt)) < knobs.unavailable_fraction;
      std::string msg = std::string("injected transient ") + device +
                        " fault (op " + std::to_string(op) + ")";
      decision.status = unavailable ? Status::Unavailable(std::move(msg))
                                    : Status::IOError(std::move(msg));
      return decision;
    }
    if (knobs.latency_spike_rate > 0.0 &&
        U01(Mix(seed, op, kSpikeSalt)) < knobs.latency_spike_rate) {
      decision.latency_scale = knobs.latency_spike_multiplier;
    }
    // Bit-rot is assessed last and only for operations that reached here
    // (i.e. did not fault): the fault/spike draws above are untouched by
    // the corruption knob, so existing seeds replay bit-identically.
    if (knobs.corruption_rate > 0.0) {
      const uint64_t rot = Mix(seed, op, kCorruptSalt);
      if (U01(rot) < knobs.corruption_rate) {
        decision.corrupted = true;
        decision.corruption_entropy = Mix(seed, op, kCorruptPickSalt);
      }
    }
    return decision;
  }

 private:
  static constexpr uint64_t kFaultSalt = 0x9e3779b97f4a7c15ULL;
  static constexpr uint64_t kKindSalt = 0xbf58476d1ce4e5b9ULL;
  static constexpr uint64_t kSpikeSalt = 0x94d049bb133111ebULL;
  static constexpr uint64_t kCorruptSalt = 0xd6e8feb86659fd93ULL;
  static constexpr uint64_t kCorruptPickSalt = 0xa0761d6478bd642fULL;

  /// splitmix64 finalizer over (seed, op, salt).
  static uint64_t Mix(uint64_t seed, uint64_t op, uint64_t salt) {
    uint64_t x = seed ^ (op * 0xd1342543de82ef95ULL) ^ salt;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Uniform double in [0, 1) from the top 53 bits of a hash.
  static double U01(uint64_t h) {
    return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Knob snapshot; all-zero default (= never configured) injects
  /// nothing. Swapped wholesale by Configure, copied once per armed Assess.
  std::mutex knobs_mutex_;
  FaultOptions knobs_;
  std::atomic<bool> armed_{false};  // knobs_.enabled(), written under the mutex
  std::atomic<bool> outage_{false};
  std::atomic<uint64_t> ops_{0};
};

}  // namespace lakeharbor::sim
