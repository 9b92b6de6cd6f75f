// Cross-layer span tracing on the virtual clock — the per-query timeline
// behind the paper's attribution story (§3 resolution time, §4/Fig 5 layer
// costs). A Tracer records hierarchical spans (resolution → connect →
// tcp_handshake / tls_handshake / quic_handshake → request → response, plus
// retry / fallback / cache_lookup children) with typed attributes; a
// lightweight SpanContext threads the tracer (and metrics registry) through
// transports, the resolver engine and the browser fetch scheduler.
//
// Determinism: spans are stored in begin order, attributes in insertion
// order, and all timestamps come from the virtual clock — two identically
// seeded runs export byte-identical traces. Instrumentation is zero-cost
// when no tracer is attached: every SpanContext helper reduces to one
// null-pointer test (the null-sink fast path).
//
// Storage is pooled for production rates (bench/obs_overhead): span names
// and attribute keys are interned once into a stable NameTable (string_view
// lookups, no per-begin allocation), and attribute records live in a
// chunked arena owned by the tracer, so begin()/end()/set_attr() on hot
// paths stop hitting the allocator after warm-up.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/registry.hpp"
#include "simnet/event_loop.hpp"
#include "simnet/time.hpp"

namespace dohperf::obs {

/// 1-based index into the tracer's span table; 0 = "no span".
using SpanId = std::uint64_t;

/// Typed attribute values. Strings for enumerations (transport, reason),
/// integers for counts and bytes, bool for flags, double for ratios.
using AttrValue = std::variant<std::int64_t, std::string, bool, double>;

struct Attr {
  std::string_view key;  ///< interned — points into the tracer's NameTable
  AttrValue value;
};

/// Interns strings once and hands out views into node-stable storage
/// (std::map keys never move), so spans and attrs can hold string_views
/// that stay valid for the table's lifetime.
class NameTable {
 public:
  /// Return a stable view equal to `s`, interning it on first sight.
  std::string_view intern(std::string_view s);
  std::size_t size() const noexcept { return ids_.size(); }

 private:
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// Pool/arena occupancy self-metrics (bench/obs_overhead reports these).
struct PoolStats {
  std::size_t spans = 0;           ///< span records held
  std::size_t span_capacity = 0;   ///< span table slots allocated
  std::size_t attr_entries = 0;    ///< live attribute slots across all spans
  std::size_t attr_capacity = 0;   ///< attribute slots allocated in chunks
  std::size_t attr_wasted = 0;     ///< slots abandoned by growth/chunk tails
  std::size_t interned_names = 0;  ///< distinct names + keys interned
};

/// Chunked arena for per-span attribute arrays. Each span owns a contiguous
/// slice; growth doubles the slice (old slots are abandoned, counted as
/// wasted). Slices never move once handed out except through grow().
class AttrArena {
 public:
  /// Allocate a fresh slice of `n` slots.
  Attr* alloc(std::size_t n);
  /// Grow a slice from old_cap to new_cap, moving `size` live entries.
  /// Returns the new slice; the old one is abandoned (counted wasted).
  Attr* grow(Attr* old_data, std::size_t size, std::size_t old_cap,
             std::size_t new_cap);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t wasted() const noexcept { return wasted_; }

 private:
  static constexpr std::size_t kChunk = 1024;

  struct Chunk {
    std::unique_ptr<Attr[]> slots;
    std::size_t cap = 0;
  };
  std::vector<Chunk> chunks_;
  std::size_t used_in_last_ = 0;  ///< slots handed out from chunks_.back()
  std::size_t capacity_ = 0;      ///< total slots across chunks
  std::size_t wasted_ = 0;        ///< tail + abandoned-by-growth slots
};

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  ///< 0 = root span
  std::string_view name;  ///< interned in the tracer's NameTable
  simnet::TimeUs start = 0;
  simnet::TimeUs end = 0;
  bool open = true;  ///< end not yet recorded

  /// Attributes in insertion order (deterministic).
  std::span<const Attr> attrs() const noexcept {
    return {attrs_data, attrs_size};
  }
  simnet::TimeUs duration() const noexcept { return open ? 0 : end - start; }
  /// Attribute lookup; returns nullptr when absent.
  const AttrValue* attr(std::string_view key) const noexcept;

  // Arena slice — managed by the owning Tracer; treat as private.
  Attr* attrs_data = nullptr;
  std::uint32_t attrs_size = 0;
  std::uint32_t attrs_cap = 0;
};

/// Records spans against a bindable virtual clock. One tracer can span
/// several simulations (benches re-bind per scenario); span ids stay unique
/// across bindings so one export holds the whole run.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(const simnet::EventLoop& loop) : clock_(&loop) {}

  /// (Re-)attach the virtual clock the next spans read their times from.
  void bind(const simnet::EventLoop& loop) noexcept { clock_ = &loop; }

  /// Pre-size the span table (pool warm-up for hot loops).
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Open a span under `parent` (0 = root). Never returns 0.
  SpanId begin(SpanId parent, std::string_view name);

  /// Close a span. Closing out of order, twice, or with id 0 is a no-op
  /// for every span but the target — tolerated by design (timeout paths
  /// close parents before children).
  void end(SpanId id);

  /// Set (or overwrite) a typed attribute; id 0 is a no-op. Attributes may
  /// be set after the span has closed (lazy cost finalization does this).
  void set_attr(SpanId id, std::string_view key, AttrValue value);

  /// Accumulate into an integer attribute (missing key starts at 0).
  void add_attr(SpanId id, std::string_view key, std::int64_t delta);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t size() const noexcept { return spans_.size(); }
  bool empty() const noexcept { return spans_.empty(); }
  /// The span record for an id returned by begin().
  const Span& span(SpanId id) const { return spans_.at(id - 1); }

  /// Number of spans still open (test/diagnostic aid).
  std::size_t open_spans() const noexcept;

  /// Pool/arena/interning occupancy (obs.pool.* self-metrics).
  PoolStats pool_stats() const noexcept;

 private:
  simnet::TimeUs now() const noexcept { return clock_ ? clock_->now() : 0; }
  /// Ensure `span` has room for one more attr; returns the write slot.
  Attr& push_slot(Span& span);

  const simnet::EventLoop* clock_ = nullptr;
  std::vector<Span> spans_;
  NameTable names_;
  AttrArena arena_;
};

/// The propagation handle threaded through client configs: a tracer, the
/// parent span new spans hang under, and the metrics registry. Copyable,
/// two pointers and an id; default-constructed = observability off.
struct SpanContext {
  Tracer* tracer = nullptr;
  SpanId parent = 0;
  Registry* metrics = nullptr;

  explicit operator bool() const noexcept { return tracer != nullptr; }

  /// Open a child span under this context's parent; 0 when no tracer.
  SpanId begin(std::string_view name) const {
    return tracer ? tracer->begin(parent, name) : 0;
  }
  void end(SpanId id) const {
    if (tracer) tracer->end(id);
  }
  void set_attr(SpanId id, std::string_view key, AttrValue value) const {
    if (tracer) tracer->set_attr(id, key, std::move(value));
  }
  void add_attr(SpanId id, std::string_view key, std::int64_t delta) const {
    if (tracer) tracer->add_attr(id, key, delta);
  }
  /// Metric writes, by handle or by name; no-ops when no registry is
  /// attached (a name is only looked up when one is).
  void count(MetricId id, std::uint64_t delta = 1) const {
    if (metrics) metrics->add(id, delta);
  }
  void count(std::string_view name, std::uint64_t delta = 1) const {
    if (metrics) metrics->add(std::string(name), delta);
  }
  void observe(MetricId id, double value) const {
    if (metrics) metrics->observe(id, value);
  }
  void observe(std::string_view name, double value) const {
    if (metrics) metrics->observe(std::string(name), value);
  }
  void set_gauge(MetricId id, std::int64_t value) const {
    if (metrics) metrics->set_gauge(id, value);
  }
  void set_gauge(std::string_view name, std::int64_t value) const {
    if (metrics) metrics->set_gauge(std::string(name), value);
  }
  /// A context whose children hang under `span` (same tracer/registry).
  SpanContext child(SpanId span) const {
    return SpanContext{tracer, span, metrics};
  }
};

}  // namespace dohperf::obs
