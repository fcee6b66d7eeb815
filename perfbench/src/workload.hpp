// Seeded request streams of the service-path benchmark.
//
// Every run of a workload sends a sequence generated only from the
// workload and the seed, so the same seed always sends the same requests.
// Three workloads stress different layers of the request path:
//
//   cold_execute  every request is a problem whose canonical key the run
//                 has not seen: search, design-cache stores and flat plan
//                 builds do the work; design-cache replay does none.
//   warm_execute  a fixed working set (one problem per family) is built in
//                 set-up; timed requests repeat it on fresh instances:
//                 canonical key, replay, plan key and warm runs do the work;
//                 search and plan builds do none.
//   cold_tiled    the cold stream, executed on a fixed small array: tile
//                 plans (uniform) and LSGP-clustered plans (DP) are built.
//
// Cold streams are stratified: each class draws its sizes from strata in
// turn, so any prefix of the stream holds nearly the same size mix on
// every seed, and the latency percentiles do not wander with the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "partition/tile.hpp"
#include "service/protocol.hpp"
#include "synth/batch.hpp"

namespace perfbench {

enum class Workload { kColdExecute, kWarmExecute, kColdTiled };

/// "cold_execute" | "warm_execute" | "cold_tiled"; throws
/// std::invalid_argument on anything else.
[[nodiscard]] Workload parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload workload);

/// True for the workloads whose timed requests must all miss the caches.
[[nodiscard]] bool is_cold(Workload workload);

/// The requests of one run.
struct Stream {
  /// Untimed set-up requests: first touches of every family at sizes
  /// outside the timed key space (cold workloads), or the working set's
  /// cold synthesis plus one warm round (warm_execute).
  std::vector<nusys::BatchProblem> warmup;
  /// The timed sequence, sent in order until the run's time is up.
  std::vector<nusys::BatchProblem> timed;
  /// Execution array of every request; disabled (0x0) runs flat.
  nusys::TileOptions tile;
};

[[nodiscard]] Stream make_stream(Workload workload, std::uint64_t seed);

/// The array cold_tiled executes on. 3x3 keeps the LSGP-clustered DP plan
/// build the largest layer of the pipeline requests while the biggest one
/// stays well under a second.
[[nodiscard]] nusys::TileOptions tiled_array();

/// An execute request for one problem.
[[nodiscard]] nusys::ServiceRequest make_request(
    const nusys::BatchProblem& problem, const nusys::TileOptions& tile,
    std::size_t index);

/// The optimal makespan each family's synthesis must report, in closed
/// form: conv backward n+s-2, mm n+m+p-3, lu 3n-3, square sw 2n-2,
/// pipeline and fw 2n-5. Throws std::invalid_argument for a problem
/// outside the table (forward conv, non-square sw).
[[nodiscard]] nusys::i64 expected_makespan(const nusys::BatchProblem& problem);

/// Short family label used in the per-family ledger ("conv", "mm", ...).
[[nodiscard]] const char* family_name(const nusys::BatchProblem& problem);

}  // namespace perfbench
