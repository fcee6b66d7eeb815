#include "trace.hpp"

#include <utility>

#include "support/json.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::size_t request,
                     bool side)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = tracer.open_.empty()
                    ? -1
                    : static_cast<std::ptrdiff_t>(tracer.open_.back());
  span.side = side;
  tracer.open_.push_back(index_);
  span.start_ns = tracer.now_ns();
  tracer.spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

void Tracer::Scope::rename(std::string name) {
  tracer_.spans_[index_].name = std::move(name);
}

Tracer::Scope Tracer::request(std::size_t id) {
  request_ = id;
  return Scope(*this, "request", id, false);
}

Tracer::Scope Tracer::span(std::string name) {
  return Scope(*this, std::move(name), request_, false);
}

Tracer::Scope Tracer::side_span(std::string name) {
  return Scope(*this, std::move(name), request_, true);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const auto& span : spans_) {
    nusys::JsonValue line;
    line.set("request", span.request);
    line.set("name", span.name);
    line.set("parent", static_cast<nusys::i64>(span.parent));
    line.set("start_ns", static_cast<nusys::i64>(span.start_ns));
    line.set("end_ns", static_cast<nusys::i64>(span.end_ns));
    line.set("side", span.side);
    out << line.dump() << '\n';
  }
}

std::map<std::size_t, RequestTime> time_by_request(
    const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] += span.ms();
    }
  }
  std::map<std::size_t, RequestTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    RequestTime& time = out[span.request];
    if (span.side) {
      time.side_ms[span.name] += span.ms();
      time.wall_ms -= span.ms();
      continue;
    }
    const double self = span.ms() - child_ms[i];
    time.self_ms[span.name] += self;
    if (span.parent < 0) {
      time.wall_ms += span.ms();
    } else {
      time.layers_ms += self;
    }
  }
  return out;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
