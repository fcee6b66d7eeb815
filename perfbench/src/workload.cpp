#include "workload.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "support/rng.hpp"

namespace perfbench {

namespace {

using nusys::BatchProblem;
using nusys::i64;
using Kind = BatchProblem::Kind;

/// Rounds in a cold stream, bounded by the smallest key spaces (lu and
/// pipeline: 45 keys each, one per round). 45 rounds of 60 are more than
/// twice what the seed build sends in a 30-second run, so a faster
/// program still finds cold keys.
constexpr std::size_t kColdRounds = 45;
/// Rounds of the warm working set; far more than any run can send.
constexpr std::size_t kWarmRounds = 1200;

BatchProblem problem(Kind kind, i64 n, const char* net) {
  BatchProblem p;
  p.kind = kind;
  p.n = n;
  p.net = net;
  return p;
}

BatchProblem conv(i64 n, i64 s) {
  BatchProblem p = problem(Kind::kConvolution, n, "linear");
  p.s = s;
  return p;
}

BatchProblem mm(i64 n, i64 m, i64 q, const char* net) {
  BatchProblem p = problem(Kind::kMatMul, n, net);
  p.m = m;
  p.p = q;
  return p;
}

BatchProblem sw(i64 n, i64 band) {
  BatchProblem p = problem(Kind::kSmithWaterman, n, "linear");
  p.m = n;
  p.band = band;
  return p;
}

/// One problem class of a cold stream: disjoint strata of candidate
/// problems (every candidate a distinct canonical key) and the number of
/// requests the class contributes to each round.
struct ColdClass {
  std::size_t per_round = 0;
  std::vector<std::vector<BatchProblem>> strata;
  std::vector<std::size_t> cycle;  ///< Shuffled stratum order.
  std::size_t next = 0;
};

/// Draws without replacement from the class's next stratum; every run of
/// `strata.size()` consecutive draws visits each stratum once.
BatchProblem draw(ColdClass& c, nusys::Rng& rng) {
  if (c.next == c.cycle.size()) {
    c.cycle.resize(c.strata.size());
    std::iota(c.cycle.begin(), c.cycle.end(), std::size_t{0});
    rng.shuffle(c.cycle);
    c.next = 0;
  }
  auto& stratum = c.strata[c.cycle[c.next++]];
  if (stratum.empty()) {
    throw std::logic_error("cold stream ran out of distinct problems");
  }
  const auto k = static_cast<std::size_t>(
      rng.uniform(0, static_cast<i64>(stratum.size()) - 1));
  std::swap(stratum[k], stratum.back());
  BatchProblem out = stratum.back();
  stratum.pop_back();
  return out;
}

/// Strata of `per` consecutive sizes n in [lo, hi]; `make(n, stratum)`
/// appends the candidates of size n.
template <typename Make>
std::vector<std::vector<BatchProblem>> strata_by_n(i64 lo, i64 hi, i64 per,
                                                   Make make) {
  std::vector<std::vector<BatchProblem>> strata;
  for (i64 base = lo; base <= hi; base += per) {
    std::vector<BatchProblem> stratum;
    for (i64 n = base; n < base + per && n <= hi; ++n) make(n, stratum);
    strata.push_back(std::move(stratum));
  }
  return strata;
}

constexpr const char* kMeshNets[] = {"mesh", "figure1", "figure2"};

/// Three groups of five sizes from `lo`, each group once per 2-D net.
std::vector<std::vector<BatchProblem>> sizes_by_net(Kind kind, i64 lo) {
  std::vector<std::vector<BatchProblem>> strata;
  for (i64 base = lo; base < lo + 15; base += 5) {
    for (const char* net : kMeshNets) {
      std::vector<BatchProblem> stratum;
      for (i64 n = base; n < base + 5; ++n) {
        stratum.push_back(problem(kind, n, net));
      }
      strata.push_back(std::move(stratum));
    }
  }
  return strata;
}

std::vector<ColdClass> cold_classes() {
  std::vector<ColdClass> classes(5);

  // conv backward, n 128..1023 in 14 strata of 64, s 4..12.
  classes[0].per_round = 22;
  classes[0].strata = strata_by_n(128, 1023, 64, [](i64 n, auto& out) {
    for (i64 s = 4; s <= 12; ++s) out.push_back(conv(n, s));
  });

  // square sw, n 64..255 in 12 strata of 16, band 4..12.
  classes[1].per_round = 22;
  classes[1].strata = strata_by_n(64, 255, 16, [](i64 n, auto& out) {
    for (i64 band = 4; band <= 12; ++band) out.push_back(sw(n, band));
  });

  // The 2-D families run on three nets whose costs differ up to tenfold,
  // so each (size stratum, net) pair is a stratum of its own.
  //
  // mm over (n, m, p) in 4..9 (permutations are distinct keys), ranked by
  // volume into 12 groups of 18 shapes.
  classes[2].per_round = 14;
  std::vector<std::tuple<i64, i64, i64, i64>> shapes;
  for (i64 n = 4; n <= 9; ++n) {
    for (i64 m = 4; m <= 9; ++m) {
      for (i64 p = 4; p <= 9; ++p) shapes.emplace_back(n * m * p, n, m, p);
    }
  }
  std::sort(shapes.begin(), shapes.end());
  for (std::size_t i = 0; i < shapes.size(); i += 18) {
    for (const char* net : kMeshNets) {
      std::vector<BatchProblem> stratum;
      for (std::size_t j = i; j < i + 18; ++j) {
        const auto& [volume, n, m, p] = shapes[j];
        (void)volume;
        stratum.push_back(mm(n, m, p, net));
      }
      classes[2].strata.push_back(std::move(stratum));
    }
  }

  // lu n 5..19 and pipeline n 8..22: the two families with the smallest
  // key spaces, one request each per round.
  classes[3].per_round = 1;
  classes[3].strata = sizes_by_net(Kind::kLU, 5);
  classes[4].per_round = 1;
  classes[4].strata = sizes_by_net(Kind::kPipeline, 8);
  return classes;
}

std::string request_name(const BatchProblem& p, std::uint64_t seed,
                         std::size_t index, const char* phase) {
  std::string name = phase;
  name += std::to_string(seed);
  name += '-';
  name += std::to_string(index);
  name += '-';
  name += family_name(p);
  return name;
}

Stream cold_stream(std::uint64_t seed) {
  Stream stream;
  // First touches of every family, all outside the timed key space.
  stream.warmup = {conv(64, 3), sw(32, 3), mm(3, 3, 3, "mesh"),
                   problem(Kind::kLU, 4, "mesh"),
                   problem(Kind::kPipeline, 6, "figure2")};
  for (std::size_t i = 0; i < stream.warmup.size(); ++i) {
    stream.warmup[i].name = request_name(stream.warmup[i], seed, i, "u");
  }

  nusys::Rng rng(seed);
  auto classes = cold_classes();
  for (std::size_t round = 0; round < kColdRounds; ++round) {
    std::vector<BatchProblem> batch;
    for (auto& c : classes) {
      for (std::size_t k = 0; k < c.per_round; ++k) {
        batch.push_back(draw(c, rng));
      }
    }
    rng.shuffle(batch);
    for (auto& p : batch) {
      p.name = request_name(p, seed, stream.timed.size(), "c");
      stream.timed.push_back(std::move(p));
    }
  }
  return stream;
}

Stream warm_stream(std::uint64_t seed) {
  const std::vector<BatchProblem> working_set = {
      conv(512, 8), mm(8, 8, 8, "mesh"), problem(Kind::kLU, 12, "mesh"),
      sw(192, 8), problem(Kind::kPipeline, 24, "figure2")};
  Stream stream;
  // Cold synthesis and first execution of the working set, then one warm
  // round so the replay path's first touches are untimed too.
  for (const char* phase : {"s", "u"}) {
    for (auto p : working_set) {
      p.name = request_name(p, seed, stream.warmup.size(), phase);
      stream.warmup.push_back(std::move(p));
    }
  }
  nusys::Rng rng(seed);
  for (std::size_t round = 0; round < kWarmRounds; ++round) {
    auto batch = working_set;
    rng.shuffle(batch);
    for (auto& p : batch) {
      p.name = request_name(p, seed, stream.timed.size(), "w");
      stream.timed.push_back(std::move(p));
    }
  }
  return stream;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "cold_execute") return Workload::kColdExecute;
  if (name == "warm_execute") return Workload::kWarmExecute;
  if (name == "cold_tiled") return Workload::kColdTiled;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kColdExecute: return "cold_execute";
    case Workload::kWarmExecute: return "warm_execute";
    case Workload::kColdTiled: return "cold_tiled";
  }
  return "?";
}

bool is_cold(Workload workload) { return workload != Workload::kWarmExecute; }

nusys::TileOptions tiled_array() {
  nusys::TileOptions tile;
  tile.rows = 3;
  tile.cols = 3;
  return tile;
}

Stream make_stream(Workload workload, std::uint64_t seed) {
  if (workload == Workload::kWarmExecute) return warm_stream(seed);
  Stream stream = cold_stream(seed);
  if (workload == Workload::kColdTiled) stream.tile = tiled_array();
  return stream;
}

nusys::ServiceRequest make_request(const BatchProblem& problem,
                                   const nusys::TileOptions& tile,
                                   std::size_t index) {
  nusys::ServiceRequest request;
  request.id = 'r';
  request.id += std::to_string(index);
  request.kind = nusys::RequestKind::kSynth;
  request.problems.push_back(problem);
  request.execute = true;
  request.tile = tile;
  return request;
}

i64 expected_makespan(const BatchProblem& p) {
  const i64 m = p.m > 0 ? p.m : p.n;
  const i64 q = p.p > 0 ? p.p : p.n;
  switch (p.kind) {
    case Kind::kConvolution:
      if (p.forward) break;
      return p.n + p.s - 2;
    case Kind::kMatMul:
      return p.n + m + q - 3;
    case Kind::kLU:
      return 3 * p.n - 3;
    case Kind::kSmithWaterman:
      if (m != p.n) break;
      return 2 * p.n - 2;
    case Kind::kPipeline:
    case Kind::kFloydWarshall:
      return 2 * p.n - 5;
  }
  throw std::invalid_argument("no closed-form makespan for '" + p.name + "'");
}

const char* family_name(const BatchProblem& problem) {
  switch (problem.kind) {
    case Kind::kConvolution: return "conv";
    case Kind::kMatMul: return "mm";
    case Kind::kLU: return "lu";
    case Kind::kSmithWaterman: return "sw";
    case Kind::kPipeline: return "pipeline";
    case Kind::kFloydWarshall: return "fw";
  }
  return "?";
}

}  // namespace perfbench
