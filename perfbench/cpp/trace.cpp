#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "common.hpp"

namespace perfbench {
namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<std::uint64_t> g_epoch{1};

// Each thread caches its buffer for the tracer epoch it last recorded
// into; a new tracer (new epoch) makes the cache stale.
struct LocalSlot {
  std::uint64_t epoch = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;

}  // namespace

Tracer::Tracer() : epoch_(g_epoch.fetch_add(1)) {}

Tracer::~Tracer() {
  Tracer* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

Tracer* Tracer::active() { return g_active.load(std::memory_order_acquire); }

ActiveTracer::ActiveTracer(Tracer& tracer) {
  g_active.store(&tracer, std::memory_order_release);
}

ActiveTracer::~ActiveTracer() {
  g_active.store(nullptr, std::memory_order_release);
}

Tracer::ThreadBuffer& Tracer::local() {
  if (t_slot.epoch != epoch_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<int>(buffers_.size());
    t_slot.buffer = buffer.get();
    t_slot.epoch = epoch_;
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(t_slot.buffer);
}

std::uint64_t Tracer::open(const char* name) {
  ThreadBuffer& buffer = local();
  const std::uint64_t id = new_id();
  const std::uint64_t parent =
      buffer.stack.empty() ? ambient_.load() : buffer.stack.back().id;
  const std::uint64_t request =
      buffer.stack.empty() ? 0 : buffer.stack.back().request;
  buffer.stack.push_back(Open{id, name, now_ns(), parent, request});
  return id;
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = local();
  // Scopes nest, so `id` is the innermost open span; search anyway so a
  // misuse loses nesting rather than throwing from a destructor.
  auto it = std::find_if(buffer.stack.rbegin(), buffer.stack.rend(),
                         [id](const Open& o) { return o.id == id; });
  if (it == buffer.stack.rend()) return;
  const Open open = *it;
  buffer.stack.erase(std::next(it).base());
  buffer.spans.push_back(Span{open.name, open.start_ns, end, open.id,
                              open.parent, open.request, buffer.thread});
}

std::uint64_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t request) {
  ThreadBuffer& buffer = local();
  const std::uint64_t id = new_id();
  buffer.spans.push_back(
      Span{name, start_ns, end_ns, id, parent, request, buffer.thread});
  return id;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

namespace {

// Spans that time one call into a layer through a public entry point.
// Wrapper spans (rl.train_iteration, core.evaluate_*) are not among
// them: their self time is work the trace does not split into layers.
constexpr const char* kLayerCalls[] = {"core.env_reset", "core.env_step",
                                       "gnn.",           "mcf.solve",
                                       "serve.queue_wait", "serve.router"};

bool starts_with(const char* name, const char* prefix) {
  return std::string_view(name).substr(0, std::strlen(prefix)) == prefix;
}

bool is_layer_call(const char* name) {
  return std::any_of(std::begin(kLayerCalls), std::end(kLayerCalls),
                     [name](const char* p) { return starts_with(name, p); });
}

// Each span's self time, in the order of `spans`.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, cursor);
      if (hi > from) {
        covered += hi - from;
        cursor = hi;
      }
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9);
  }
  return out;
}

}  // namespace

std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    SpanSummary& summary = out[s.name];
    ++summary.count;
    summary.total_s += duration;
    summary.self_s += self[i];
    summary.durations_s.push_back(duration);
    summary.self_durations_s.push_back(self[i]);
  }
  return out;
}

double coverage(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id.emplace(s.id, &s);
  auto under_unit = [&](const Span& s) {
    for (auto it = by_id.find(s.parent); it != by_id.end();
         it = by_id.find(it->second->parent)) {
      if (starts_with(it->second->name, "bench.")) return true;
    }
    return false;
  };
  double unit_total = 0.0;
  double claimed = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (starts_with(s.name, "bench.")) {
      unit_total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    } else if (is_layer_call(s.name) && under_unit(s)) {
      claimed += self[i];
    }
  }
  return unit_total > 0.0 ? claimed / unit_total : 0.0;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"schema\": \"perfbench.spans.v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"thread\": " << s.thread << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
