// The traced replay: one service request answered by calling each layer's
// public functions in the order SynthesisService::run_problems and the
// synthesis facades call them, with a span around every call.
//
// Layers are timed from outside the library, so this file restates the
// request path: protocol decode, canonical key, design-cache lookup and
// replay or search and store, report, plan acquire, execution, encode.
// The replay must reproduce the service's answers (same makespan, design
// count and execution verdict); the driver checks that for every request,
// so the ledger measures the same work the timed runs do.
#pragma once

#include <cstddef>
#include <cstdint>

#include "service/protocol.hpp"
#include "service/session.hpp"
#include "support/cache.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one traced request did, beyond its spans.
struct TracedFacts {
  bool design_hit = false;   ///< Replayed from the design cache.
  bool searched = false;     ///< Ran the full search.
  std::size_t candidates = 0;  ///< Search candidates examined, if searched.
  bool plan_hit = false;     ///< Its first plan acquire hit the plan cache.
  bool plan_built = false;   ///< A plan was built for it.
  std::size_t plan_bytes = 0;  ///< plan_bytes() of that plan; 0 if unknown.
  std::size_t plan_key_bytes = 0;  ///< Length of the structural plan key.
  std::size_t points = 0;    ///< Domain points of a flat execution.
  bool audit_ok = true;      ///< Every fresh plan passed the static audit.
  bool plan_reused = true;   ///< The executor ran on the plan timed above.
  std::size_t response_bytes = 0;  ///< Encoded response length.
  nusys::ServiceResponse response;  ///< Decoded, as a client sees it.
};

class TracedPath {
 public:
  /// Uses the search options and design-cache configuration `config`
  /// gives the service, with its own design cache.
  explicit TracedPath(const nusys::ServiceConfig& config);

  /// Answers `request` (one synth problem) with request id `id`.
  [[nodiscard]] TracedFacts run(const nusys::ServiceRequest& request,
                                Tracer& tracer, std::size_t id);

  [[nodiscard]] nusys::CacheStats cache_stats() const {
    return cache_.stats();
  }

 private:
  void run_uniform(const nusys::BatchProblem& problem,
                   const nusys::Interconnect& net, std::uint64_t seed,
                   const nusys::ServiceRequest& request, Tracer& tracer,
                   TracedFacts& facts, nusys::ServiceResult& result);
  void run_pipeline(const nusys::BatchProblem& problem,
                    const nusys::Interconnect& net, std::uint64_t seed,
                    const nusys::ServiceRequest& request, Tracer& tracer,
                    TracedFacts& facts, nusys::ServiceResult& result);

  nusys::SynthesisOptions synth_;
  nusys::NonUniformSynthesisOptions pipe_;
  nusys::DesignCache cache_;
};

}  // namespace perfbench
