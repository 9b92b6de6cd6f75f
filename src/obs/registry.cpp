#include "obs/registry.hpp"

#include <sstream>

namespace dohperf::obs {

namespace {

/// The slot index for `name`, appending a fresh slot on first sight.
template <typename Slot>
std::uint32_t slot_for(std::map<std::string, std::uint32_t>& ids,
                       std::vector<Slot>& slots, const std::string& name) {
  const auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(slots.size());
  slots.emplace_back();
  ids.emplace(name, index);
  return index;
}

/// The touched slot registered under `name`, or null.
template <typename Slot>
const Slot* find_slot(const std::map<std::string, std::uint32_t>& ids,
                      const std::vector<Slot>& slots,
                      const std::string& name) {
  const auto it = ids.find(name);
  if (it == ids.end() || !slots[it->second].touched) return nullptr;
  return &slots[it->second];
}

HistogramSummary summarize(const stats::Cdf& cdf) {
  HistogramSummary s;
  if (cdf.empty()) return s;
  s.count = cdf.count();
  s.min = cdf.sorted_values().front();
  s.p25 = cdf.quantile(0.25);
  s.p50 = cdf.quantile(0.50);
  s.p75 = cdf.quantile(0.75);
  s.p90 = cdf.quantile(0.90);
  s.p95 = cdf.quantile(0.95);
  s.p99 = cdf.quantile(0.99);
  s.max = cdf.quantile(1.0);
  return s;
}

}  // namespace

MetricId Registry::register_counter(const std::string& name) {
  return MetricId(MetricKind::kCounter,
                  slot_for(counter_ids_, counter_slots_, name));
}

MetricId Registry::register_gauge(const std::string& name) {
  return MetricId(MetricKind::kGauge,
                  slot_for(gauge_ids_, gauge_slots_, name));
}

MetricId Registry::register_histogram(const std::string& name) {
  return MetricId(MetricKind::kHistogram,
                  slot_for(hist_ids_, hist_slots_, name));
}

std::uint64_t Registry::counter(const std::string& name) const {
  const CounterSlot* slot = find_slot(counter_ids_, counter_slots_, name);
  return slot == nullptr ? 0 : slot->value;
}

std::int64_t Registry::gauge(const std::string& name) const {
  const GaugeSlot* slot = find_slot(gauge_ids_, gauge_slots_, name);
  return slot == nullptr ? 0 : slot->value;
}

const stats::Cdf* Registry::histogram(const std::string& name) const {
  const HistSlot* slot = find_slot(hist_ids_, hist_slots_, name);
  return slot == nullptr ? nullptr : &slot->cdf;
}

HistogramSummary Registry::histogram_summary(const std::string& name) const {
  const stats::Cdf* cdf = histogram(name);
  return cdf == nullptr ? HistogramSummary{} : summarize(*cdf);
}

bool Registry::empty() const {
  for (const CounterSlot& slot : counter_slots_) {
    if (slot.touched) return false;
  }
  for (const GaugeSlot& slot : gauge_slots_) {
    if (slot.touched) return false;
  }
  for (const HistSlot& slot : hist_slots_) {
    if (slot.touched) return false;
  }
  return true;
}

void Registry::clear() {
  for (CounterSlot& slot : counter_slots_) slot = CounterSlot{};
  for (GaugeSlot& slot : gauge_slots_) slot = GaugeSlot{};
  for (HistSlot& slot : hist_slots_) slot = HistSlot{};
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, index] : other.counter_ids_) {
    const CounterSlot& slot = other.counter_slots_[index];
    if (slot.touched) add(name, slot.value);
  }
  for (const auto& [name, index] : other.gauge_ids_) {
    const GaugeSlot& slot = other.gauge_slots_[index];
    if (slot.touched) set_gauge(name, slot.value);
  }
  for (const auto& [name, index] : other.hist_ids_) {
    const HistSlot& slot = other.hist_slots_[index];
    if (!slot.touched) continue;
    HistSlot& mine = hist_slots_[slot_for(hist_ids_, hist_slots_, name)];
    mine.cdf.add_all(slot.cdf.sorted_values());
    mine.touched = true;
  }
}

dns::JsonValue Registry::to_json() const {
  dns::JsonObject root;
  root["schema"] = dns::JsonValue("dohperf-metrics-v1");

  dns::JsonObject counters;
  for (const auto& [name, index] : counter_ids_) {
    const CounterSlot& slot = counter_slots_[index];
    if (!slot.touched) continue;
    counters[name] = dns::JsonValue(static_cast<std::int64_t>(slot.value));
  }
  root["counters"] = dns::JsonValue(std::move(counters));

  dns::JsonObject gauges;
  for (const auto& [name, index] : gauge_ids_) {
    const GaugeSlot& slot = gauge_slots_[index];
    if (!slot.touched) continue;
    gauges[name] = dns::JsonValue(slot.value);
  }
  root["gauges"] = dns::JsonValue(std::move(gauges));

  dns::JsonObject histograms;
  for (const auto& [name, index] : hist_ids_) {
    const HistSlot& slot = hist_slots_[index];
    if (!slot.touched) continue;
    const HistogramSummary s = summarize(slot.cdf);
    dns::JsonObject h;
    h["count"] = dns::JsonValue(static_cast<std::int64_t>(s.count));
    h["min"] = dns::JsonValue(s.min);
    h["p25"] = dns::JsonValue(s.p25);
    h["p50"] = dns::JsonValue(s.p50);
    h["p75"] = dns::JsonValue(s.p75);
    h["p90"] = dns::JsonValue(s.p90);
    h["p95"] = dns::JsonValue(s.p95);
    h["p99"] = dns::JsonValue(s.p99);
    h["max"] = dns::JsonValue(s.max);
    histograms[name] = dns::JsonValue(std::move(h));
  }
  root["histograms"] = dns::JsonValue(std::move(histograms));
  return dns::JsonValue(std::move(root));
}

std::string Registry::render() const {
  std::ostringstream os;
  for (const auto& [name, index] : counter_ids_) {
    const CounterSlot& slot = counter_slots_[index];
    if (slot.touched) os << name << ' ' << slot.value << '\n';
  }
  for (const auto& [name, index] : gauge_ids_) {
    const GaugeSlot& slot = gauge_slots_[index];
    if (slot.touched) os << name << ' ' << slot.value << '\n';
  }
  for (const auto& [name, index] : hist_ids_) {
    const HistSlot& slot = hist_slots_[index];
    if (!slot.touched) continue;
    const HistogramSummary s = summarize(slot.cdf);
    os << name << " n=" << s.count << " p50=" << s.p50 << " p90=" << s.p90
       << " max=" << s.max << '\n';
  }
  return os.str();
}

}  // namespace dohperf::obs
