// Tests of the benchmark itself: the seeded generator, the cold key space,
// the percentile helper, the closed-form makespan table and the span
// self-time arithmetic. Run with ctest in the perfbench build directory.
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/canonical.hpp"
#include "stats.hpp"
#include "support/json.hpp"
#include "synth/batch.hpp"
#include "synth/design_cache.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace nusys;
using perfbench::Workload;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << '\n';
    ++failures;
  }
}

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

std::string describe(const BatchProblem& p) {
  return std::to_string(static_cast<int>(p.kind)) + " " + p.name + " n" +
         std::to_string(p.n) + " s" + std::to_string(p.s) + " m" +
         std::to_string(p.m) + " p" + std::to_string(p.p) + " b" +
         std::to_string(p.band) + " " + p.net;
}

std::vector<std::string> describe(const perfbench::Stream& stream) {
  std::vector<std::string> out;
  for (const auto& p : stream.warmup) out.push_back("u " + describe(p));
  for (const auto& p : stream.timed) out.push_back("t " + describe(p));
  return out;
}

std::string canonical_key(const BatchProblem& p) {
  const Interconnect net = batch_interconnect(p);
  if (batch_uses_pipeline(p)) {
    return pipeline_cache_key(batch_spec(p), net, {});
  }
  return synthesis_cache_key(canonicalize_recurrence(batch_recurrence(p)),
                             net, {});
}

void generator_is_deterministic() {
  for (const Workload w : {Workload::kColdExecute, Workload::kWarmExecute,
                           Workload::kColdTiled}) {
    const auto a = describe(perfbench::make_stream(w, 7));
    const auto b = describe(perfbench::make_stream(w, 7));
    const auto c = describe(perfbench::make_stream(w, 8));
    const std::string name = perfbench::workload_name(w);
    check(a == b, name + ": the same seed gives the same sequence");
    check(a != c, name + ": another seed gives another sequence");
  }
  check(perfbench::make_stream(Workload::kColdTiled, 3).tile ==
            perfbench::tiled_array(),
        "cold_tiled runs on the fixed array");
  check(!perfbench::make_stream(Workload::kColdExecute, 3).tile.enabled(),
        "cold_execute runs flat");
}

void cold_keys_are_distinct() {
  const auto stream = perfbench::make_stream(Workload::kColdExecute, 11);
  std::set<std::string> keys;
  for (const auto& p : stream.warmup) keys.insert(canonical_key(p));
  check(keys.size() == stream.warmup.size(), "warm-up keys are distinct");
  for (const auto& p : stream.timed) {
    check(keys.insert(canonical_key(p)).second,
          "timed key of " + p.name + " is new to the run");
  }
  check(stream.timed.size() == 2700, "the cold stream outlasts a run");

  // Every family appears, and the sizes mix the same way on every seed:
  // each round of 60 requests holds one lu and one pipeline problem.
  std::set<std::string> families;
  for (const auto& p : stream.timed) families.insert(perfbench::family_name(p));
  check(families == std::set<std::string>{"conv", "lu", "mm", "pipeline", "sw"},
        "the cold mix holds every family");
  std::size_t lu = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    lu += stream.timed[i].kind == BatchProblem::Kind::kLU ? 1u : 0u;
  }
  check(lu == 1, "one lu problem per round");
}

void quantile_matches_hand_computed() {
  check(near(perfbench::quantile({1, 2, 3, 4}, 0.5), 2.5), "median of 4");
  check(near(perfbench::quantile({50, 10, 40, 20, 30}, 0.9), 46.0),
        "p90 of 5 interpolates between 40 and 50");
  check(near(perfbench::quantile({3, 1, 2}, 0.0), 1.0), "q0 is the minimum");
  check(near(perfbench::quantile({3, 1, 2}, 1.0), 3.0), "q1 is the maximum");
  check(near(perfbench::quantile({5}, 0.9), 5.0), "one sample");
  check(near(perfbench::quantile({}, 0.5), 0.0), "no samples");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(near(perfbench::quantile(hundred, 0.9), 90.1), "p90 of 1..100");
}

BatchProblem corpus_problem(const std::string& line) {
  std::map<std::string, std::string> fields;
  const JsonValue json = JsonValue::parse(line);
  for (const auto& [key, value] : json.as_object()) {
    fields[key] = value.is_string() ? value.as_string() : value.dump();
  }
  return parse_batch_problem(fields, 1);
}

void closed_forms_match_the_corpus() {
  // The frontier corpus problems (examples/frontier_corpus.jsonl) and the
  // makespans their synthesis reports.
  const std::vector<std::pair<std::string, i64>> corpus = {
      {R"({"kind": "mm", "n": 4})", 9},
      {R"({"kind": "mm", "n": 3, "m": 5, "p": 4})", 9},
      {R"({"kind": "lu", "n": 5})", 12},
      {R"({"kind": "sw", "n": 6, "m": 6, "band": 2})", 10},
      {R"({"kind": "conv", "n": 10, "s": 3})", 11},
      {R"({"kind": "pipeline", "n": 6})", 7},
      {R"({"kind": "fw", "n": 6})", 7},
  };
  for (const auto& [line, makespan] : corpus) {
    const BatchProblem p = corpus_problem(line);
    check(perfbench::expected_makespan(p) == makespan,
          "closed form of " + line);
    const Interconnect net = batch_interconnect(p);
    const i64 synthesized =
        batch_uses_pipeline(p)
            ? synthesize_nonuniform(batch_spec(p), net).schedule_makespan
            : synthesize(batch_recurrence(p), net).schedule_search.makespan;
    check(synthesized == makespan, "synthesized makespan of " + line);
  }
}

void self_time_subtracts_children() {
  // request [0, 10] > a [1, 4] > a.b [2, 3]; side [5, 7]; a [7, 9].
  std::vector<perfbench::Span> spans = {
      {"request", 0, -1, 0, 10'000'000, false},
      {"a", 0, 0, 1'000'000, 4'000'000, false},
      {"a.b", 0, 1, 2'000'000, 3'000'000, false},
      {"side", 0, 0, 5'000'000, 7'000'000, true},
      {"a", 0, 0, 7'000'000, 9'000'000, false},
  };
  const auto time = perfbench::time_by_request(spans).at(0);
  check(near(time.self_ms.at("a"), 4.0), "self time sums spans of a name");
  check(near(time.self_ms.at("a.b"), 1.0), "leaf self time is its duration");
  check(near(time.self_ms.at("request"), 3.0), "root self time is the glue");
  check(near(time.side_ms.at("side"), 2.0), "side spans are kept apart");
  check(near(time.layers_ms, 5.0), "layer time excludes glue and side spans");
  check(near(time.wall_ms, 8.0), "wall time excludes side spans");
  check(perfbench::layer_of("design_cache.replay") == "design_cache" &&
            perfbench::layer_of("search") == "search",
        "a span's layer is its name's first part");
}

}  // namespace

int main() {
  generator_is_deterministic();
  cold_keys_are_distinct();
  quantile_matches_hand_computed();
  closed_forms_match_the_corpus();
  self_time_subtracts_children();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench tests passed\n";
  return 0;
}
