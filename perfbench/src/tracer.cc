#include "tracer.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kClient: return "client";
    case Layer::kWorkloads: return "workloads";
    case Layer::kCore: return "core";
    case Layer::kAudit: return "audit";
    case Layer::kPower: return "power";
    case Layer::kFleet: return "fleet";
    case Layer::kRunner: return "runner";
    case Layer::kAdmission: return "admission";
    case Layer::kSched: return "sched";
  }
  return "?";
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int32_t Tracer::open(Layer layer, const char* op, std::uint64_t request,
                          bool reference) {
  Span span;
  span.id = static_cast<std::int32_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.layer = layer;
  span.reference = reference;
  span.op = op;
  span.request = request;
  span.begin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void Tracer::close(std::int32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
}

std::int32_t Tracer::add(Layer layer, const char* op, std::int64_t begin_ns,
                         std::int64_t end_ns, std::int32_t parent,
                         bool reference) {
  Span span;
  span.id = static_cast<std::int32_t>(spans_.size());
  span.parent = parent;
  span.layer = layer;
  span.reference = reference;
  span.op = op;
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return span.id;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\":%d,\"parent\":%d,\"layer\":\"%s\",\"op\":\"%s\","
                 "\"request\":%llu,\"reference\":%s,\"begin_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 s.id, s.parent, layer_name(s.layer), s.op,
                 static_cast<unsigned long long>(s.request),
                 s.reference ? "true" : "false",
                 static_cast<long long>(s.begin_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

LayerTimes self_times(const std::vector<Span>& spans, bool reference,
                      std::size_t from) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
  }
  LayerTimes times;
  for (std::size_t i = from; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.reference != reference) continue;
    const auto layer = static_cast<std::size_t>(s.layer);
    const std::int64_t self =
        s.end_ns - s.begin_ns - child_ns[static_cast<std::size_t>(s.id)];
    times.self_s[layer] += static_cast<double>(self) * 1e-9;
    ++times.spans[layer];
  }
  return times;
}

}  // namespace perfbench
