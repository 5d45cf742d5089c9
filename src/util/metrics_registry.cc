#include "util/metrics_registry.h"

namespace odbgc {

MetricCounter* MetricsRegistry::Register(const std::string& name) {
  return &counters_[name];
}

const MetricCounter* MetricsRegistry::Find(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

void MetricsRegistry::ResetCounters() {
  for (auto& [name, counter] : counters_) counter.Reset();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> samples;
  samples.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    samples.push_back({name, counter.value(MetricPhase::kApplication),
                       counter.value(MetricPhase::kCollector)});
  }
  return samples;
}

std::vector<MetricSample> MergeMetricSamples(
    const std::vector<std::vector<MetricSample>>& parts) {
  std::map<std::string, MetricSample> merged;
  for (const std::vector<MetricSample>& part : parts) {
    for (const MetricSample& sample : part) {
      MetricSample& into = merged[sample.name];
      into.name = sample.name;
      into.application += sample.application;
      into.collector += sample.collector;
    }
  }
  std::vector<MetricSample> out;
  out.reserve(merged.size());
  for (auto& [name, sample] : merged) out.push_back(std::move(sample));
  return out;
}

}  // namespace odbgc
