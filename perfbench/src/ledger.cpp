#include "ledger.hpp"

#include <iomanip>
#include <map>
#include <optional>

#include "stats.hpp"

namespace perfbench {

namespace {

/// Waterfall layers in request-path order.
constexpr const char* kLayers[] = {"service", "canonical", "design_cache",
                                   "search",  "report",    "plan",
                                   "execute", "partition"};

/// Side spans: measured beside the request path, never in its time.
constexpr const char* kSideSpans[] = {"plan.key", "analysis.audit",
                                      "partition.run", "partition.tile_plan"};

template <typename Value>
std::vector<double> samples(const std::vector<LedgerRow>& rows, Value value) {
  std::vector<double> out;
  for (const auto& row : rows) {
    if (const std::optional<double> v = value(row)) out.push_back(*v);
  }
  return out;
}

std::optional<double> find(const std::map<std::string, double>& map,
                           const std::string& key) {
  const auto it = map.find(key);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

std::vector<double> self_samples(const std::vector<LedgerRow>& rows,
                                 const std::string& name) {
  return samples(rows, [&](const LedgerRow& row) {
    return find(row.time.self_ms, name);
  });
}

std::vector<double> side_samples(const std::vector<LedgerRow>& rows,
                                 const std::string& name) {
  return samples(rows, [&](const LedgerRow& row) {
    return find(row.time.side_ms, name);
  });
}

/// Tile planning and tiled plan build of one request: the clustering span
/// of a DP request, or a cold tiled call minus a warm one (uniform).
std::optional<double> partition_plan_ms(const RequestTime& time) {
  if (const auto plan = find(time.self_ms, "partition.plan")) return plan;
  const auto cold = find(time.self_ms, "partition.cold");
  const auto warm = find(time.side_ms, "partition.run");
  if (cold && warm) return *cold - *warm;
  return std::nullopt;
}

/// Tiled execution on a warm tile plan.
std::optional<double> partition_run_ms(const RequestTime& time) {
  if (const auto run = find(time.self_ms, "partition.run")) return run;
  return find(time.side_ms, "partition.run");
}

/// A layer's self time within one request; nullopt when it did no work.
std::optional<double> layer_ms(const RequestTime& time,
                               const std::string& layer) {
  std::optional<double> total;
  for (const auto& [name, ms] : time.self_ms) {
    if (name != "request" && layer_of(name) == layer) {
      total = total.value_or(0.0) + ms;
    }
  }
  return total;
}

double ratio(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void print_waterfall(std::ostream& out, const std::vector<LedgerRow>& rows,
                     const std::string& title) {
  double traced_total = 0.0;
  double glue_total = 0.0;
  for (const auto& row : rows) {
    traced_total += row.time.layers_ms;
    glue_total += find(row.time.self_ms, "request").value_or(0.0);
  }
  out << title << ": " << rows.size() << " requests, traced layer time "
      << std::fixed << std::setprecision(1) << traced_total << " ms\n";
  out << "  " << std::left << std::setw(20) << "layer" << std::right
      << std::setw(12) << "self ms" << std::setw(9) << "share"
      << std::setw(12) << "median ms" << std::setw(7) << "n" << '\n';
  std::string largest;
  double largest_ms = -1.0;
  for (const std::string layer : kLayers) {
    const auto per_request = samples(rows, [&](const LedgerRow& row) {
      return layer_ms(row.time, layer);
    });
    double total = 0.0;
    for (const double ms : per_request) total += ms;
    if (total > largest_ms) {
      largest_ms = total;
      largest = layer;
    }
    out << "  " << std::left << std::setw(20) << layer << std::right
        << std::setprecision(1) << std::setw(12) << total << std::setw(8)
        << 100.0 * total / (traced_total > 0 ? traced_total : 1)
        << '%' << std::setprecision(3) << std::setw(12)
        << median(per_request) << std::setw(7) << per_request.size() << '\n';
  }
  out << "  " << std::left << std::setw(20) << "(glue)" << std::right
      << std::setprecision(1) << std::setw(12) << glue_total
      << "  between layer calls, outside every layer\n";
  for (const std::string side : kSideSpans) {
    const auto per_request = side_samples(rows, side);
    if (per_request.empty()) continue;
    double total = 0.0;
    for (const double ms : per_request) total += ms;
    out << "  " << std::left << std::setw(20) << side << std::right
        << std::setprecision(1) << std::setw(12) << total
        << "  beside the path, median " << std::setprecision(3)
        << median(per_request) << " ms, n " << per_request.size() << '\n';
  }
  out << "  largest layer: " << largest << " ("
      << std::setprecision(1)
      << 100.0 * largest_ms / (traced_total > 0 ? traced_total : 1)
      << "% of traced time)\n";
  out << std::defaultfloat;
}

}  // namespace

std::vector<Metric> layer_metrics(const std::vector<LedgerRow>& rows,
                                  const LedgerTotals& totals) {
  std::vector<Metric> out;
  auto add = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  auto fact = [&](auto value) {
    return samples(rows, [&](const LedgerRow& row) -> std::optional<double> {
      return value(row.facts);
    });
  };

  add("service.decode_ms", median(self_samples(rows, "service.decode")),
      "ms");
  add("service.encode_ms", median(self_samples(rows, "service.encode")),
      "ms");
  add("service.response_bytes",
      median(fact([](const TracedFacts& f) -> std::optional<double> {
        return static_cast<double>(f.response_bytes);
      })),
      "bytes");
  add("canonical.ms", median(self_samples(rows, "canonical")), "ms");
  add("design_cache.replay_ms",
      median(self_samples(rows, "design_cache.replay")), "ms");
  add("design_cache.store_ms",
      median(self_samples(rows, "design_cache.store")), "ms");
  const auto& cache = totals.design_cache;
  add("design_cache.hit_ratio", ratio(cache.hits, cache.hits + cache.misses),
      "ratio");
  add("design_cache.rejects", static_cast<double>(cache.validation_failures),
      "count");
  add("design_cache.evictions", static_cast<double>(cache.evictions),
      "count");
  add("search.ms", median(self_samples(rows, "search")), "ms");
  add("search.candidates",
      median(fact([](const TracedFacts& f) -> std::optional<double> {
        if (!f.searched) return std::nullopt;
        return static_cast<double>(f.candidates);
      })),
      "count");
  add("report.ms", median(self_samples(rows, "report")), "ms");
  add("plan.key_ms", median(side_samples(rows, "plan.key")), "ms");
  add("plan.build_ms", median(self_samples(rows, "plan.build")), "ms");
  add("plan.bytes",
      median(fact([](const TracedFacts& f) -> std::optional<double> {
        if (!f.plan_built || f.plan_bytes == 0) return std::nullopt;
        return static_cast<double>(f.plan_bytes);
      })),
      "bytes");
  add("plan.resident_bytes", static_cast<double>(totals.plan_resident_bytes),
      "bytes");
  std::size_t executed = 0;
  std::size_t plan_hits = 0;
  for (const auto& row : rows) {
    if (row.facts.plan_hit || row.facts.plan_built) {
      ++executed;
      plan_hits += row.facts.plan_hit ? 1u : 0u;
    }
  }
  add("plan.hit_ratio", ratio(plan_hits, executed), "ratio");
  add("analysis.audit_ms", median(side_samples(rows, "analysis.audit")), "ms");
  add("execute.ms", median(self_samples(rows, "execute")), "ms");
  add("execute.points_per_s",
      median(samples(rows, [](const LedgerRow& row) -> std::optional<double> {
        const auto ms = find(row.time.self_ms, "execute");
        if (!ms || *ms <= 0.0 || row.facts.points == 0) return std::nullopt;
        return static_cast<double>(row.facts.points) / (*ms / 1000.0);
      })),
      "1/s");
  add("partition.plan_ms",
      median(samples(rows, [](const LedgerRow& row) {
        return partition_plan_ms(row.time);
      })),
      "ms");
  add("partition.run_ms",
      median(samples(rows, [](const LedgerRow& row) {
        return partition_run_ms(row.time);
      })),
      "ms");

  std::vector<double> untraced, layers, wall;
  for (const auto& row : rows) {
    untraced.push_back(row.untraced_ms);
    layers.push_back(row.time.layers_ms);
    wall.push_back(row.time.wall_ms);
  }
  const double untraced_p50 = median(untraced);
  add("trace.unaccounted_ms", untraced_p50 - median(layers), "ms");
  add("trace.overhead_pct",
      untraced_p50 > 0.0 ? 100.0 * (median(wall) - untraced_p50) / untraced_p50
                         : 0.0,
      "%");
  add("trace.requests", static_cast<double>(rows.size()), "count");
  return out;
}

void print_ledger(std::ostream& out, const std::vector<LedgerRow>& rows) {
  print_waterfall(out, rows, "all families");
  std::map<std::string, std::vector<LedgerRow>> by_family;
  for (const auto& row : rows) by_family[row.family].push_back(row);
  for (const auto& [family, family_rows] : by_family) {
    print_waterfall(out, family_rows, family);
  }
}

}  // namespace perfbench
