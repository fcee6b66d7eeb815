// In-memory spans for the traced replay, and per-request self times.
//
// A span is one timed call into a layer. Spans nest by scope on one
// thread; each holds its name, start, end, parent and the id of the
// request it belongs to. Span names are "<layer>" or "<layer>.<part>"
// (layers are named after the repo modules they cover), plus the root
// span "request". A side span times work done beside the request path
// (a plan audit the service does not run, a second warm call), so it is
// reported but never counted in the request's time.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::size_t request = 0;
  std::ptrdiff_t parent = -1;  ///< Index into the span list; -1 at a root.
  std::int64_t start_ns = 0;   ///< Since the tracer's construction.
  std::int64_t end_ns = 0;
  bool side = false;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

class Tracer {
 public:
  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::size_t request, bool side);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Names the span after the fact, e.g. once a lookup hit or missed.
    void rename(std::string name);

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// The root span of request `id`; spans opened inside it belong to it.
  [[nodiscard]] Scope request(std::size_t id);
  [[nodiscard]] Scope span(std::string name);
  [[nodiscard]] Scope side_span(std::string name);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per span and line.
  void write_jsonl(std::ostream& out) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< Stack of open span indices.
  std::size_t request_ = 0;
};

/// What one request's spans add up to.
struct RequestTime {
  /// Self time (duration minus child spans) of each non-side span name,
  /// summed over the request's spans of that name. The root's self time
  /// is under "request": glue between layer calls, not a layer.
  std::map<std::string, double> self_ms;
  /// Duration of each side span name, summed.
  std::map<std::string, double> side_ms;
  double layers_ms = 0.0;  ///< Sum of self_ms without "request".
  double wall_ms = 0.0;    ///< Root duration minus side spans.
};

[[nodiscard]] std::map<std::size_t, RequestTime> time_by_request(
    const std::vector<Span>& spans);

/// The layer a span name belongs to: the text before the first '.'.
[[nodiscard]] std::string layer_of(const std::string& span_name);

}  // namespace perfbench
