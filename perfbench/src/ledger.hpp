// The per-layer ledger: per-layer metrics and the waterfall of a traced run.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "support/cache.hpp"
#include "trace.hpp"
#include "traced_path.hpp"

namespace perfbench {

/// One traced request, with the untraced latency of the same request.
struct LedgerRow {
  std::string family;
  RequestTime time;
  TracedFacts facts;
  double untraced_ms = 0.0;
};

/// Run-level counts the ledger reports beside the rows.
struct LedgerTotals {
  nusys::CacheStats design_cache;  ///< Traced design cache, replay only.
  std::size_t plan_resident_bytes = 0;  ///< Plan cache after the replay.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric, in a fixed order. Times are medians per request
/// over the requests in which the span occurred (0 when none did).
[[nodiscard]] std::vector<Metric> layer_metrics(
    const std::vector<LedgerRow>& rows, const LedgerTotals& totals);

/// The waterfall: each layer's self time, share of the traced request
/// time and median per request, for the whole run and per family, and the
/// largest layer of each.
void print_ledger(std::ostream& out, const std::vector<LedgerRow>& rows);

}  // namespace perfbench
