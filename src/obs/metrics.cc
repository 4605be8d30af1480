#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/logging.h"

namespace viewmat::obs {

Labels MetricsRegistry::CanonicalLabels(const Labels& labels) {
  Labels sorted = labels;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  return sorted;
}

std::string MetricsRegistry::FullKey(std::string_view name,
                                     const Labels& labels) {
  std::string key(name);
  key += '{';
  for (const auto& [k, v] : labels) {
    key += k;
    key += '=';
    key += v;
    key += ',';
  }
  key += '}';
  return key;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const Labels& labels) {
  VIEWMAT_DCHECK(owner_.CalledByOwner());
  Labels canonical = CanonicalLabels(labels);
  std::string key = FullKey(name, canonical);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::move(key),
                      CounterEntry{std::string(name), std::move(canonical),
                                   Counter()})
             .first;
  }
  return &it->second.counter;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const Labels& labels,
                                         std::vector<double> bounds) {
  VIEWMAT_DCHECK(owner_.CalledByOwner());
  Labels canonical = CanonicalLabels(labels);
  std::string key = FullKey(name, canonical);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::move(key),
                      HistogramEntry{std::string(name), std::move(canonical),
                                     Histogram(std::move(bounds))})
             .first;
  }
  return &it->second.histogram;
}

namespace {

void WriteLabels(common::JsonWriter* w, const Labels& labels) {
  w->Key("labels");
  w->BeginObject();
  for (const auto& [k, v] : labels) w->KV(k, v);
  w->EndObject();
}

}  // namespace

void MetricsRegistry::WriteJson(common::JsonWriter* w) const {
  w->BeginObject();
  w->Key("counters");
  w->BeginArray();
  for (const auto& [key, entry] : counters_) {
    w->BeginObject();
    w->KV("name", entry.name);
    WriteLabels(w, entry.labels);
    w->KV("value", entry.counter.value());
    w->EndObject();
  }
  w->EndArray();
  w->Key("histograms");
  w->BeginArray();
  for (const auto& [key, entry] : histograms_) {
    const Histogram& h = entry.histogram;
    w->BeginObject();
    w->KV("name", entry.name);
    WriteLabels(w, entry.labels);
    w->Key("bounds");
    w->BeginArray();
    for (const double b : h.bounds()) w->Double(b);
    w->EndArray();
    w->Key("counts");
    w->BeginArray();
    for (const uint64_t c : h.counts()) w->Uint(c);
    w->EndArray();
    w->KV("sum", h.sum());
    w->KV("count", h.count());
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string MetricsRegistry::ToString() const {
  std::string out;
  char buf[64];
  auto append_labeled = [&out](const std::string& name, const Labels& labels) {
    out += name;
    if (!labels.empty()) {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : labels) {
        if (!first) out += ',';
        first = false;
        out += k;
        out += '=';
        out += v;
      }
      out += '}';
    }
  };
  for (const auto& [key, entry] : counters_) {
    append_labeled(entry.name, entry.labels);
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(entry.counter.value()));
    out += buf;
  }
  for (const auto& [key, entry] : histograms_) {
    append_labeled(entry.name, entry.labels);
    std::snprintf(buf, sizeof(buf), " count=%llu sum=%.3f\n",
                  static_cast<unsigned long long>(entry.histogram.count()),
                  entry.histogram.sum());
    out += buf;
  }
  return out;
}

}  // namespace viewmat::obs
