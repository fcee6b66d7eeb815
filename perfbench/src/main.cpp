// Service-path benchmark driver: one workload, one seed, one run.
//
//   perfbench_driver --workload W --seed N --seconds S
//                    [--trace 0|1] [--trace-out FILE] [--setup-only]
//
// Timed mode (--trace 0) sends the workload's stream through an in-process
// SynthesisService over a loopback connection (make_loopback +
// serve_connection + ServiceClient: everything `nusys serve` does per
// request except the socket hop). One client, closed loop: the next
// request is sent when the previous answer is decoded. The last line of
// stdout is the result as JSON.
//
// Traced mode (--trace 1) spends half the time on the same service loop,
// untraced, then replays the requests it sent through TracedPath, which
// calls each layer itself with a span around every call, and prints the
// per-layer ledger.
//
// --setup-only stops after set-up and prints {"setup_s": ...}, so the
// caller can sample set-up time in several fresh processes.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "stats.hpp"
#include "support/json.hpp"
#include "systolic/plan_cache.hpp"
#include "trace.hpp"
#include "traced_path.hpp"
#include "workload.hpp"

namespace {

using namespace nusys;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  Workload workload = Workload::kColdExecute;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = perfbench::parse_workload(value);
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
      if (!(options.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return options;
}

/// Why `response` fails the output check for `problem`; empty on a pass.
std::string check_response(const ServiceResponse& response,
                           const BatchProblem& problem) {
  if (response.status != ResponseStatus::kOk) {
    return std::string("status ") + response_status_name(response.status) +
           ": " + response.error;
  }
  if (response.results.size() != 1) return "expected exactly one result";
  const ServiceResult& result = response.results.front();
  if (!result.report.feasible) return "infeasible";
  const i64 expected = perfbench::expected_makespan(problem);
  if (result.report.makespan != expected) {
    return "makespan " + std::to_string(result.report.makespan) +
           ", expected " + std::to_string(expected);
  }
  if (!result.executed) return "not executed";
  if (!result.execution_match) return "execution does not match the reference";
  return {};
}

/// An in-process service behind a loopback connection and one client.
class LoopbackService {
 public:
  LoopbackService() : service_(ServiceConfig{}) {
    auto pair = make_loopback();
    server_end_ = std::move(pair.server);
    client_ = std::make_unique<ServiceClient>(std::move(pair.client));
    server_ = std::thread([this] { serve_connection(service_, *server_end_); });
  }

  ~LoopbackService() {
    client_->close();
    server_.join();
  }

  LoopbackService(const LoopbackService&) = delete;
  LoopbackService& operator=(const LoopbackService&) = delete;

  ServiceClient& client() { return *client_; }
  SynthesisService& service() { return service_; }

 private:
  SynthesisService service_;
  std::unique_ptr<LineTransport> server_end_;
  std::unique_ptr<ServiceClient> client_;
  std::thread server_;
};

/// What the traced replay must reproduce of one service answer.
struct Answer {
  i64 makespan = 0;
  std::size_t designs = 0;
  bool match = false;
};

Answer answer_of(const ServiceResponse& response) {
  if (response.results.size() != 1) return {};
  const ServiceResult& result = response.results.front();
  return {result.report.makespan, result.report.designs.size(),
          result.execution_match};
}

/// The outcome of the service loop.
struct ServiceRun {
  std::vector<double> latency_ms;  ///< Per timed request, in send order.
  std::vector<Answer> answers;     ///< Parallel to latency_ms.
  double wall_s = 0.0;
  std::size_t failed = 0;
  std::string guard_error;  ///< Non-empty when a workload-shape guard broke.
};

/// Set-up: the service, the stream and the untimed warm-up. Throws on a
/// warm-up request that fails its output check.
struct Setup {
  std::unique_ptr<LoopbackService> harness;
  perfbench::Stream stream;
};

Setup set_up(const Options& options) {
  Setup setup;
  setup.harness = std::make_unique<LoopbackService>();
  setup.stream = perfbench::make_stream(options.workload, options.seed);
  for (std::size_t i = 0; i < setup.stream.warmup.size(); ++i) {
    const auto& problem = setup.stream.warmup[i];
    const auto response = setup.harness->client().call(
        perfbench::make_request(problem, setup.stream.tile, i));
    const std::string why = check_response(response, problem);
    if (!why.empty()) {
      throw std::runtime_error("warm-up request " + problem.name + ": " + why);
    }
  }
  return setup;
}

void report_failure(std::size_t& failed, const BatchProblem& problem,
                    const std::string& why) {
  if (failed < 5) std::cerr << "FAILED " << problem.name << ": " << why << '\n';
  ++failed;
}

/// Sends the stream, closed loop, until `seconds` have passed or the
/// stream ends, and checks every answer and the workload's shape.
ServiceRun run_service(Setup& setup, Workload workload, double seconds) {
  ServiceRun run;
  auto& client = setup.harness->client();
  const auto& timed = setup.stream.timed;
  const ServiceStats before = setup.harness->service().stats();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < timed.size() && seconds_since(start) < seconds;
       ++i) {
    ServiceRequest request =
        perfbench::make_request(timed[i], setup.stream.tile, i);
    const auto sent = Clock::now();
    ServiceResponse response = client.call(std::move(request));
    run.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - sent)
            .count());
    const std::string why = check_response(response, timed[i]);
    if (!why.empty()) report_failure(run.failed, timed[i], why);
    if (perfbench::is_cold(workload) && !response.results.empty() &&
        response.results.front().cache_hit && run.guard_error.empty()) {
      run.guard_error = "cold request " + timed[i].name + " hit the cache";
    }
    run.answers.push_back(answer_of(response));
  }
  run.wall_s = seconds_since(start);
  if (run.latency_ms.size() == timed.size()) {
    std::cerr << "note: the stream ended before the time was up\n";
  }

  if (workload == Workload::kWarmExecute) {
    const ServiceStats after = setup.harness->service().stats();
    const std::size_t sent = run.latency_ms.size();
    const std::size_t design_hits = after.cache.hits - before.cache.hits;
    const std::size_t design_misses = after.cache.misses - before.cache.misses;
    const std::size_t plan_hits =
        after.plan_cache.hits - before.plan_cache.hits;
    const std::size_t plan_misses =
        after.plan_cache.misses - before.plan_cache.misses;
    if (design_hits != sent || design_misses != 0 || plan_hits != sent ||
        plan_misses != 0) {
      run.guard_error =
          "warm requests must all hit both caches: " + std::to_string(sent) +
          " sent, design cache " + std::to_string(design_hits) + " hits/" +
          std::to_string(design_misses) + " misses, plan cache " +
          std::to_string(plan_hits) + " hits/" + std::to_string(plan_misses) +
          " misses";
    }
  }
  return run;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

JsonValue metric(double value, const std::string& unit) {
  JsonValue m;
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

JsonValue result_json(bool correct, std::size_t attempted, std::size_t failed,
                      JsonValue metrics) {
  JsonValue out;
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(metrics));
  return out;
}

int timed_mode(const Options& options, Clock::time_point process_start) {
  Setup setup = set_up(options);
  const double setup_s = seconds_since(process_start);
  if (options.setup_only) {
    JsonValue out;
    out.set("setup_s", setup_s);
    std::cout << out.dump() << std::endl;
    return 0;
  }
  const ServiceRun run =
      run_service(setup, options.workload, options.seconds);
  setup.harness.reset();
  if (!run.guard_error.empty()) {
    std::cerr << "workload-shape guard: " << run.guard_error << '\n';
    return 3;
  }
  const std::size_t sent = run.latency_ms.size();
  JsonValue metrics;
  metrics.set("setup_s", metric(setup_s, "s"));
  metrics.set("latency_p50_ms",
              metric(perfbench::quantile(run.latency_ms, 0.5), "ms"));
  metrics.set("latency_p90_ms",
              metric(perfbench::quantile(run.latency_ms, 0.9), "ms"));
  metrics.set("throughput_rps",
              metric(static_cast<double>(sent) / run.wall_s, "1/s"));
  metrics.set("peak_rss_mb", metric(peak_rss_mb(), "MB"));
  std::cout << perfbench::workload_name(options.workload) << " seed "
            << options.seed << ": " << sent << " requests in " << run.wall_s
            << " s, " << run.failed << " failed\n";
  std::cout << result_json(run.failed == 0, sent, run.failed,
                           std::move(metrics))
                   .dump()
            << std::endl;
  return 0;
}

/// Why the traced answer differs from the service's; empty when equal.
std::string compare_answers(const Answer& traced, const Answer& served) {
  if (traced.makespan != served.makespan) return "makespan differs";
  if (traced.designs != served.designs) return "design count differs";
  if (traced.match != served.match) return "execution verdict differs";
  return {};
}

int traced_mode(const Options& options) {
  const double phase_s = options.seconds / 2.0;
  Setup setup = set_up(options);
  const ServiceRun run = run_service(setup, options.workload, phase_s);
  setup.harness.reset();
  if (!run.guard_error.empty()) {
    std::cerr << "workload-shape guard: " << run.guard_error << '\n';
    return 3;
  }

  // The replay starts from the caches a fresh service starts from.
  wavefront_plan_cache().clear();
  perfbench::TracedPath path(ServiceConfig{});
  const auto& stream = setup.stream;
  {
    perfbench::Tracer untimed;
    for (std::size_t i = 0; i < stream.warmup.size(); ++i) {
      const auto facts = path.run(
          perfbench::make_request(stream.warmup[i], stream.tile, i), untimed,
          i);
      const std::string why = check_response(facts.response, stream.warmup[i]);
      if (!why.empty()) {
        throw std::runtime_error("traced warm-up " + stream.warmup[i].name +
                                 ": " + why);
      }
    }
  }

  perfbench::Tracer tracer;
  std::vector<perfbench::LedgerRow> rows;
  std::size_t failed = run.failed;
  const CacheStats cache_before = path.cache_stats();
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < run.answers.size() && seconds_since(start) < phase_s; ++i) {
    const BatchProblem& problem = stream.timed[i];
    perfbench::TracedFacts facts = path.run(
        perfbench::make_request(problem, stream.tile, i), tracer, i);
    std::string why = check_response(facts.response, problem);
    if (why.empty()) {
      why = compare_answers(answer_of(facts.response), run.answers[i]);
    }
    if (why.empty() && !facts.audit_ok) why = "a fresh plan failed its audit";
    if (why.empty() && !facts.plan_reused) {
      why = "the executor did not run on the plan the trace acquired";
    }
    if (!why.empty()) report_failure(failed, problem, "traced: " + why);
    perfbench::LedgerRow row;
    row.family = perfbench::family_name(problem);
    row.untraced_ms = run.latency_ms[i];
    row.facts = std::move(facts);
    row.facts.response = ServiceResponse{};  // Only the checks above need it.
    rows.push_back(std::move(row));
  }
  const auto by_request = perfbench::time_by_request(tracer.spans());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].time = by_request.at(i);
  }

  perfbench::LedgerTotals totals;
  const CacheStats cache_after = path.cache_stats();
  totals.design_cache.hits = cache_after.hits - cache_before.hits;
  totals.design_cache.misses = cache_after.misses - cache_before.misses;
  totals.design_cache.validation_failures =
      cache_after.validation_failures - cache_before.validation_failures;
  totals.design_cache.evictions =
      cache_after.evictions - cache_before.evictions;
  totals.plan_resident_bytes = wavefront_plan_cache().stats().bytes;

  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    tracer.write_jsonl(out);
    if (!out) throw std::runtime_error("cannot write " + options.trace_out);
  }

  std::cout << "ledger " << perfbench::workload_name(options.workload)
            << " seed " << options.seed << " (" << run.latency_ms.size()
            << " service requests, " << rows.size() << " traced)\n";
  perfbench::print_ledger(std::cout, rows);
  JsonValue metrics;
  for (const auto& m : perfbench::layer_metrics(rows, totals)) {
    metrics.set(m.name, metric(m.value, m.unit));
  }
  const std::size_t attempted = run.latency_ms.size() + rows.size();
  std::cout << result_json(failed == 0, attempted, failed, std::move(metrics))
                   .dump()
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  try {
    const Options options = parse_options(argc, argv);
    return options.trace ? traced_mode(options)
                         : timed_mode(options, process_start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 2;
  }
}
