// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer: name, start, end, the span that
// caused it, and the request it served (0 when none).  Spans are kept in
// per-thread buffers while the workload runs — recording takes no lock —
// and are only merged, summarised and written out when the run ends.
//
// Parents: a span's parent is the innermost span still open on the same
// thread.  Work that a pool thread does on behalf of the main thread
// (vectorised collection, evaluation units) has no open span of its own,
// so it inherits the tracer's ambient parent, which the workload sets to
// its current unit span.
//
// Self time is a span's duration minus the part of it covered by the
// union of its children's intervals.  Names are static strings; the
// convention is "<layer>.<operation>", with "bench.*" reserved for the
// benchmark's own unit spans (one training iteration, one evaluation
// round, one served request).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not tied to one request
  int thread = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The tracer spans are recorded into, or null when tracing is off.
  // Only one tracer is active at a time; it is installed for the lifetime
  // of an ActiveTracer.
  static Tracer* active();

  // Opens a span on the calling thread; it inherits the request id of
  // the span it nests in.
  std::uint64_t open(const char* name);
  void close(std::uint64_t id);
  // Records an already finished span (used where the interval is derived
  // from timestamps rather than bracketed by a call).
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::uint64_t request);

  void set_ambient_parent(std::uint64_t id) { ambient_.store(id); }

  // Every recorded span.  Call only once no thread is still recording.
  std::vector<Span> spans() const;

 private:
  std::uint64_t new_id() { return next_id_.fetch_add(1); }

  struct Open {
    std::uint64_t id;
    const char* name;
    std::int64_t start_ns;
    std::uint64_t parent;
    std::uint64_t request;
  };
  struct ThreadBuffer {
    int thread = 0;
    std::vector<Span> spans;
    std::vector<Open> stack;
  };
  ThreadBuffer& local();

  const std::uint64_t epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> ambient_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

// Installs a tracer as Tracer::active() for this object's lifetime.
class ActiveTracer {
 public:
  explicit ActiveTracer(Tracer& tracer);
  ~ActiveTracer();
  ActiveTracer(const ActiveTracer&) = delete;
  ActiveTracer& operator=(const ActiveTracer&) = delete;
};

// RAII span around one call; a no-op when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name) : tracer_(Tracer::active()) {
    if (tracer_ != nullptr) id_ = tracer_->open(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
};

struct SpanSummary {
  long count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
  std::vector<double> self_durations_s;
};

// Per-name totals with self times derived from the parent links.
std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans);

// Share of the bench.* unit spans' time that layer calls claim: the self
// time of the layer-call spans (env steps and resets, GNN forwards, MCF
// solves, serving queue wait and router time) nested in a unit, over
// the units' total duration.  The self time of units and of wrapper
// spans around whole library calls counts as unaccounted.
double coverage(const std::vector<Span>& spans);

// Writes the spans as one JSON document (one span per line).
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
