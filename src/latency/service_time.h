// ServiceTimeModel — per-request sampled service times.
//
// Every request's base CPU service time is a draw from a configured
// distribution (fixed, exponential, lognormal); the WFQ-backlog,
// queueing and disk components of the latency add on top. The default,
// kFixed, charges every request the same mean, so p50 == p99 and nothing
// tail-related is measurable; kLognormal gives the heavy tail.
//
// Determinism contract: nodes tick concurrently under the parallel
// data-plane executor, so the model is STATELESS — a sample is a pure
// hash of (model seed, stream, req_id) pushed through an inverse CDF.
// The same request on the same node draws the same service time no
// matter which worker executes it or how many requests came before.
// Streams are per-(node, tenant), so per-tenant and per-node draws are
// mutually independent.
#pragma once

#include <cstdint>

#include "common/clock.h"

namespace abase {
namespace latency {

/// Service-time distribution classes.
enum class DistKind : uint8_t {
  kFixed = 0,        ///< Always `mean_micros` (the seed behavior).
  kExponential = 1,  ///< Memoryless; tail ratio p99/p50 ~ 6.6.
  kLognormal = 2,    ///< Heavy tail; shape set by `sigma`.
};

const char* DistKindName(DistKind kind);

struct ServiceTimeOptions {
  /// No-op, kept only so callers that still set it compile; the draw is
  /// always taken, and `dist` = kFixed (the default) is the seed's fixed
  /// base. Remove once no caller sets it.
  bool enabled = false;
  /// kFixed with the default mean draws exactly 150us, the node's
  /// cpu_service_micros default, for every request.
  DistKind dist = DistKind::kFixed;
  /// Mean of the sampled service time, whatever the distribution.
  double mean_micros = 150.0;
  /// Lognormal shape (sigma of the underlying normal). 1.2 gives
  /// p99/p50 ~ 16 — the tail the hedging machinery exists for.
  double sigma = 1.2;
  /// Base seed; mixed with the caller's stream and req_id per draw.
  uint64_t seed = 42;
};

/// Stateless deterministic sampler. Copyable; holds only the options and
/// the precomputed lognormal location parameter.
class ServiceTimeModel {
 public:
  ServiceTimeModel() = default;
  explicit ServiceTimeModel(const ServiceTimeOptions& options);

  const ServiceTimeOptions& options() const { return options_; }

  /// One service-time draw for (stream, req_id). Pure: depends only on
  /// the model seed and the two arguments. Always >= 1 microsecond.
  Micros Sample(uint64_t stream, uint64_t req_id) const;

  /// Uniform double in [0, 1) from a counter-mode hash draw — exposed
  /// for tests that verify stream independence.
  static double Uniform(uint64_t seed, uint64_t stream, uint64_t draw);

 private:
  ServiceTimeOptions options_;
  double lognormal_mu_ = 0;  ///< ln(mean) - sigma^2/2 (mean-preserving).
};

}  // namespace latency
}  // namespace abase
