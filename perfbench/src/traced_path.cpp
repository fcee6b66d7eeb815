#include "traced_path.hpp"

#include <optional>
#include <string>
#include <utility>

#include "analysis/plan_audit.hpp"
#include "chains/modules_emit.hpp"
#include "designs/dp_plan.hpp"
#include "designs/uniform_plan.hpp"
#include "frontends/execute.hpp"
#include "ir/canonical.hpp"
#include "partition/dp_tiling.hpp"
#include "partition/tile_plan.hpp"
#include "schedule/coarse.hpp"
#include "support/hash.hpp"
#include "synth/batch.hpp"
#include "synth/design_cache.hpp"
#include "synth/report.hpp"
#include "systolic/engine_select.hpp"
#include "systolic/plan_cache.hpp"

namespace perfbench {

namespace {

using namespace nusys;

/// Runs `f` inside a span named `name` and returns its value.
template <typename F>
auto traced(Tracer& tracer, const char* name, F&& f) {
  const auto span = tracer.span(name);
  return f();
}

/// Plan-cache bytes added between two snapshots, or 0 when the cache
/// also dropped plans in between and the difference is not one plan.
std::size_t added_bytes(const PlanCacheStats& before,
                        const PlanCacheStats& after) {
  if (after.evictions != before.evictions ||
      after.invalidations != before.invalidations ||
      after.bytes < before.bytes) {
    return 0;
  }
  return after.bytes - before.bytes;
}

}  // namespace

TracedPath::TracedPath(const ServiceConfig& config)
    : synth_(config.synthesis), pipe_(config.pipeline), cache_(config.cache) {
  // As SynthesisService::run_problems: the sequential search path. The
  // cache is consulted here, layer by layer, not inside the facades.
  synth_.parallelism.threads = 1;
  pipe_.parallelism.threads = 1;
}

TracedFacts TracedPath::run(const ServiceRequest& input, Tracer& tracer,
                            std::size_t id) {
  TracedFacts facts;
  const auto root = tracer.request(id);
  const std::string request_line =
      traced(tracer, "service.encode", [&] { return encode_request(input); });
  const ServiceRequest request = traced(
      tracer, "service.decode", [&] { return parse_request(request_line); });

  ServiceResponse response;
  response.id = request.id;
  for (const auto& problem : request.problems) {
    ServiceResult result;
    const Interconnect net = traced(tracer, "service.dispatch", [&] {
      result.name = problem.name;
      return batch_interconnect(problem);
    });
    // The service's per-problem instance seed (session.cpp).
    const std::uint64_t seed = 1 ^ fnv1a64(problem.name);
    if (batch_uses_pipeline(problem)) {
      run_pipeline(problem, net, seed, request, tracer, facts, result);
    } else {
      run_uniform(problem, net, seed, request, tracer, facts, result);
    }
    response.results.push_back(std::move(result));
  }

  const std::string response_line = traced(
      tracer, "service.encode", [&] { return encode_response(response); });
  facts.response_bytes = response_line.size();
  facts.response = traced(tracer, "service.decode",
                          [&] { return parse_response(response_line); });
  return facts;
}

void TracedPath::run_uniform(const BatchProblem& problem,
                             const Interconnect& net, std::uint64_t seed,
                             const ServiceRequest& request, Tracer& tracer,
                             TracedFacts& facts, ServiceResult& result) {
  const CanonicRecurrence rec = traced(
      tracer, "service.dispatch", [&] { return batch_recurrence(problem); });
  const RecurrenceCanonicalForm form =
      traced(tracer, "canonical", [&] { return canonicalize_recurrence(rec); });
  const std::string key = traced(tracer, "canonical", [&] {
    return synthesis_cache_key(form, net, synth_);
  });

  // A lookup is part of the hit path (replay) or of the miss path (store).
  std::optional<SynthesisResult> synthesis;
  {
    auto span = tracer.span("design_cache.store");
    if (const auto payload = cache_.lookup(key)) {
      span.rename("design_cache.replay");
      synthesis = replay_synthesis_entry(*payload, rec, net, form);
      if (!synthesis) cache_.reject(key);
    }
  }
  facts.design_hit = synthesis.has_value();
  if (!synthesis) {
    synthesis = traced(tracer, "search",
                       [&] { return synthesize(rec, net, synth_); });
    facts.searched = true;
    facts.candidates = synthesis->telemetry.total_examined();
    if (synthesis->found()) {
      const auto span = tracer.span("design_cache.store");
      cache_.insert(key, encode_synthesis_entry(*synthesis, form));
    }
  }
  result.cache_hit = facts.design_hit;
  result.report = traced(tracer, "report",
                         [&] { return make_design_report(rec, *synthesis); });
  if (!request.execute || !synthesis->found()) return;

  const Design& best = synthesis->designs.front();
  // The service keys the plans' owner scope with a second canonicalization.
  const PlanOwnerScope owner(traced(tracer, "canonical", [&] {
    return synthesis_cache_key(canonicalize_recurrence(rec), net, synth_);
  }));
  {
    const auto span = tracer.side_span("plan.key");
    facts.plan_key_bytes =
        uniform_plan_key(rec, best.timing, best.space, best.net).size();
  }
  auto& plans = wavefront_plan_cache();
  DesignExecution execution;
  if (!request.tile.enabled()) {
    AcquiredUniformPlan acquired;
    {
      auto span = tracer.span("plan.lookup");
      acquired = acquire_uniform_plan(rec, best.timing, best.space, best.net);
      if (!acquired.cache_hit) span.rename("plan.build");
    }
    facts.plan_hit = acquired.cache_hit;
    if (!acquired.cache_hit) {
      facts.plan_built = true;
      facts.plan_bytes = acquired.plan->plan_bytes();
      const auto span = tracer.side_span("analysis.audit");
      facts.audit_ok = audit_uniform_plan(*acquired.plan, rec, best.timing,
                                          best.space, best.net, problem.name)
                           .ok();
    }
    facts.points = acquired.plan->count;
    const std::size_t misses = plans.stats().misses;
    execution = traced(tracer, "execute", [&] {
      return execute_uniform_design(problem, best, seed, request.tile,
                                    engine_kind(), nullptr);
    });
    facts.plan_reused = plans.stats().misses == misses;
  } else {
    // The tiled plan is acquired inside the executor, so a cold tiled call
    // (tile planning, plan build, run) is timed against a warm one (run).
    const PlanCacheStats before = plans.stats();
    execution = traced(tracer, "partition.cold", [&] {
      return execute_uniform_design(problem, best, seed, request.tile,
                                    engine_kind(), nullptr);
    });
    const PlanCacheStats after = plans.stats();
    facts.plan_hit = after.misses == before.misses;
    facts.plan_built = !facts.plan_hit;
    facts.plan_bytes = facts.plan_built ? added_bytes(before, after) : 0;
    {
      const auto span = tracer.side_span("partition.run");
      const DesignExecution warm = execute_uniform_design(
          problem, best, seed, request.tile, engine_kind(), nullptr);
      facts.plan_reused =
          plans.stats().misses == after.misses && warm.match == execution.match;
    }
    // The executor keeps its tile plan private; the audit needs its own.
    const UniformTilePlan tile_plan = [&] {
      const auto span = tracer.side_span("partition.tile_plan");
      return build_uniform_tile_plan(rec, best.timing, best.space, best.net,
                                     request.tile);
    }();
    const auto span = tracer.side_span("analysis.audit");
    facts.audit_ok = audit_tile_plan(tile_plan, rec, best.timing, best.space,
                                     best.net, problem.name)
                         .ok();
  }
  result.executed = true;
  result.execution_match = execution.match;
  result.engine = engine_kind_name(execution.engine);
}

void TracedPath::run_pipeline(const BatchProblem& problem,
                              const Interconnect& net, std::uint64_t seed,
                              const ServiceRequest& request, Tracer& tracer,
                              TracedFacts& facts, ServiceResult& result) {
  const NonUniformSpec spec = traced(tracer, "service.dispatch",
                                     [&] { return batch_spec(problem); });
  const std::string key = traced(tracer, "canonical", [&] {
    return pipeline_cache_key(spec, net, pipe_);
  });

  std::optional<std::string> payload;
  {
    auto span = tracer.span("design_cache.store");
    payload = cache_.lookup(key);
    if (payload) span.rename("design_cache.replay");
  }
  std::optional<NonUniformSynthesisResult> synthesis;
  if (payload) {
    // A hit still derives the coarse timing and module system it is
    // validated against (synthesize_nonuniform stages 1-2): search work.
    NonUniformSynthesisResult replayed;
    const ModuleSystem sys = traced(tracer, "search", [&] {
      ScheduleSearchOptions coarse = pipe_.coarse;
      coarse.parallelism = pipe_.parallelism;
      replayed.coarse = derive_coarse_timing(spec, coarse);
      replayed.chain_shape =
          analyze_chain_shape(spec, replayed.coarse.schedule());
      return emit_interval_dp_modules(spec, replayed.coarse.schedule());
    });
    const auto span = tracer.span("design_cache.replay");
    if (auto entry = replay_pipeline_entry(*payload, sys, net)) {
      replayed.schedules = entry->schedules;
      replayed.schedule_makespan = entry->makespan;
      for (const auto& assignment : entry->assignments) {
        replayed.designs.push_back(
            DPArrayDesign{replayed.schedules, assignment.spaces, net});
        replayed.cell_counts.push_back(assignment.cell_count);
        if (pipe_.max_designs > 0 &&
            replayed.designs.size() >= pipe_.max_designs) {
          break;
        }
      }
      synthesis = std::move(replayed);
    } else {
      cache_.reject(key);
    }
  }
  facts.design_hit = synthesis.has_value();
  if (!synthesis) {
    synthesis = traced(tracer, "search", [&] {
      return synthesize_nonuniform(spec, net, pipe_);
    });
    facts.searched = true;
    facts.candidates = synthesis->telemetry.total_examined();
    if (synthesis->found()) {
      const auto span = tracer.span("design_cache.store");
      CachedPipelineDesigns entry;
      entry.schedules = synthesis->schedules;
      entry.makespan = synthesis->schedule_makespan;
      for (std::size_t i = 0; i < synthesis->designs.size(); ++i) {
        ModuleSpaceAssignment assignment;
        assignment.spaces = synthesis->designs[i].spaces;
        assignment.cell_count = synthesis->cell_counts[i];
        entry.assignments.push_back(std::move(assignment));
      }
      cache_.insert(key, encode_pipeline_entry(entry));
    }
  }
  result.cache_hit = facts.design_hit;
  result.report = traced(tracer, "report", [&] {
    return make_pipeline_report(spec, *synthesis);
  });
  if (!request.execute || !synthesis->found()) return;

  const DPArrayDesign& best = synthesis->best();
  const PlanOwnerScope owner(traced(tracer, "canonical", [&] {
    return pipeline_cache_key(spec, net, pipe_);
  }));
  const bool tiled = request.tile.enabled();
  const DPArrayDesign design =
      tiled ? traced(tracer, "partition.plan",
                     [&] {
                       return tiled_dp_design(best, problem.n, request.tile);
                     })
            : best;
  {
    const auto span = tracer.side_span("plan.key");
    facts.plan_key_bytes = detail::dp_plan_key(design, problem.n, 1, 0).size();
  }
  detail::AcquiredDPPlan acquired;
  {
    auto span = tracer.span("plan.lookup");
    acquired = detail::acquire_dp_plan(design, problem.n, 1, 0);
    if (!acquired.cache_hit) span.rename("plan.build");
  }
  facts.plan_hit = acquired.cache_hit;
  if (!acquired.cache_hit) {
    facts.plan_built = true;
    facts.plan_bytes = acquired.plan->plan_bytes();
    const auto span = tracer.side_span("analysis.audit");
    facts.audit_ok =
        audit_dp_plan(*acquired.plan, design, 0, problem.name).ok();
  }
  if (!tiled) facts.points = acquired.plan->compute_ops;
  auto& plans = wavefront_plan_cache();
  const std::size_t misses = plans.stats().misses;
  const DesignExecution execution =
      traced(tracer, tiled ? "partition.run" : "execute", [&] {
        return execute_pipeline_design(problem, best, seed, request.tile,
                                       engine_kind(), nullptr);
      });
  facts.plan_reused = plans.stats().misses == misses;
  result.executed = true;
  result.execution_match = execution.match;
  result.engine = engine_kind_name(execution.engine);
}

}  // namespace perfbench
