// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around every call it makes into an lpfps
// layer (and one `client` root span per operation).  Spans are kept in
// memory and written out once, when the run ends, so recording costs
// two clock reads and a vector append.  A layer's self time is the sum
// of its spans' durations minus the parts covered by their direct
// children.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layers the benchmark calls into, named after the library's
/// modules, plus `client`: the benchmark's own work around each
/// operation.
enum class Layer : std::uint8_t {
  kClient,
  kWorkloads,
  kCore,
  kAudit,
  kPower,
  kFleet,
  kRunner,
  kAdmission,
  kSched,
};
inline constexpr std::size_t kLayerCount = 9;

const char* layer_name(Layer layer);

struct Span {
  std::int32_t id = 0;
  std::int32_t parent = -1;  ///< -1 for a root span.
  Layer layer = Layer::kClient;
  /// Reference replays (serial core, 1-worker fleet, from-scratch
  /// admission, ramp replay) are kept apart from the measured path.
  bool reference = false;
  const char* op = "";         ///< Static string naming the call.
  std::uint64_t request = 0;   ///< Spans of one operation share this.
  std::int64_t begin_ns = 0;   ///< steady_clock, relative to the tracer.
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer();

  /// Opens a span as a child of the innermost open span.
  std::int32_t open(Layer layer, const char* op, std::uint64_t request,
                    bool reference);
  /// Closes span `id`, which must be the innermost open span.
  void close(std::int32_t id);

  /// Appends an already-timed span (tests and replayed intervals).
  std::int32_t add(Layer layer, const char* op, std::int64_t begin_ns,
                   std::int64_t end_ns, std::int32_t parent = -1,
                   bool reference = false);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of closed span `id`.
  std::int64_t elapsed_ns(std::int32_t id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_ns - s.begin_ns;
  }

  /// Writes one JSON object per span, one per line.
  bool write_jsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer makes it a no-op, so the untraced path
/// pays one branch.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer, const char* op,
        std::uint64_t request = 0, bool reference = false)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(layer, op, request, reference)
                              : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

struct LayerTimes {
  std::array<double, kLayerCount> self_s{};
  std::array<std::int64_t, kLayerCount> spans{};

  double self(Layer layer) const {
    return self_s[static_cast<std::size_t>(layer)];
  }
};

/// Self time per layer over spans [from, end) whose reference flag
/// equals `reference`: each span's duration minus its direct children's.
LayerTimes self_times(const std::vector<Span>& spans, bool reference,
                      std::size_t from = 0);

}  // namespace perfbench
