#include "integration/sample.h"

#include <algorithm>

#include "common/macros.h"
#include "integration/source.h"

namespace uuq {

double IntegratedSample::Fuse(const std::vector<double>& reports) const {
  UUQ_DCHECK(!reports.empty());
  switch (policy_) {
    case FusionPolicy::kAverage: {
      double sum = 0.0;
      for (double r : reports) sum += r;
      return sum / static_cast<double>(reports.size());
    }
    case FusionPolicy::kFirst:
      return reports.front();
    case FusionPolicy::kLast:
      return reports.back();
    case FusionPolicy::kMajority: {
      // Mode with ties broken by first occurrence.
      double best = reports.front();
      int best_count = 0;
      for (size_t i = 0; i < reports.size(); ++i) {
        int count = 0;
        for (double r : reports) {
          if (r == reports[i]) ++count;
        }
        if (count > best_count) {
          best_count = count;
          best = reports[i];
        }
      }
      return best;
    }
  }
  return reports.front();
}

void IntegratedSample::Record(int32_t source_index, int32_t entity_index,
                              double value) {
  ++n_;
  log_.push_back({source_index, entity_index, value});
  const size_t stat_index = static_cast<size_t>(entity_index);
  EntityStat& stat = entities_[stat_index];
  if (stat.multiplicity == 0) {
    // New entity: multiplicity 0 -> 1. Filter pre-sizes the report buffers;
    // Add appends one here.
    if (reports_.size() <= stat_index) reports_.emplace_back();
    reports_[stat_index].push_back(value);
    stat.value = value;
    stat.multiplicity = 1;
    observed_sum_ += value;
    singleton_sum_ += value;
    return;
  }
  const double old_value = stat.value;
  const int64_t old_mult = stat.multiplicity;

  reports_[stat_index].push_back(value);
  const double new_value = Fuse(reports_[stat_index]);

  // The entity stops being a singleton exactly when old_mult == 1.
  if (old_mult == 1) singleton_sum_ -= old_value;

  observed_sum_ += new_value - old_value;
  stat.value = new_value;
  stat.multiplicity = old_mult + 1;
}

void IntegratedSample::Add(const std::string& source_id,
                           const std::string& entity_key, double value,
                           const std::string& category) {
  const std::string key = NormalizeEntityKey(entity_key);
  UUQ_CHECK_MSG(!key.empty(), "empty entity key");
  ++source_sizes_[source_id];

  auto src_it = source_index_.find(source_id);
  int32_t source_idx;
  if (src_it == source_index_.end()) {
    source_idx = static_cast<int32_t>(source_names_.size());
    source_names_.push_back(source_id);
    source_index_.emplace(source_id, source_idx);
  } else {
    source_idx = src_it->second;
  }

  auto it = index_.find(key);
  if (it == index_.end()) {
    const size_t stat_index = entities_.size();
    entities_.push_back({key, 0.0, 0, category});
    index_.emplace(key, stat_index);
    ++multiplicity_histogram_[1];
    Record(source_idx, static_cast<int32_t>(stat_index), value);
    return;
  }
  const size_t stat_index = it->second;
  EntityStat& stat = entities_[stat_index];
  if (!category.empty() && stat.category.empty()) stat.category = category;

  // Histogram shift old_mult -> old_mult + 1.
  const int64_t old_mult = stat.multiplicity;
  auto hist_it = multiplicity_histogram_.find(old_mult);
  UUQ_DCHECK(hist_it != multiplicity_histogram_.end());
  if (--hist_it->second == 0) multiplicity_histogram_.erase(hist_it);
  ++multiplicity_histogram_[old_mult + 1];

  Record(source_idx, static_cast<int32_t>(stat_index), value);
}

FrequencyStatistics IntegratedSample::Fstats() const {
  return FrequencyStatistics::FromHistogram(multiplicity_histogram_);
}

std::vector<double> IntegratedSample::Values() const {
  std::vector<double> out;
  out.reserve(entities_.size());
  for (const EntityStat& e : entities_) out.push_back(e.value);
  return out;
}

std::vector<int64_t> IntegratedSample::SourceSizeVector() const {
  std::vector<int64_t> out;
  out.reserve(source_sizes_.size());
  for (const auto& [id, size] : source_sizes_) out.push_back(size);
  return out;
}

std::vector<Observation> IntegratedSample::ObservationLog() const {
  std::vector<Observation> out;
  out.reserve(log_.size());
  for (const RawObservation& entry : log_) {
    const EntityStat& entity = entities_[entry.entity_index];
    out.push_back({source_names_[entry.source_index], entity.key, entry.value,
                   entity.category});
  }
  return out;
}

std::vector<std::string> IntegratedSample::Categories() const {
  std::vector<std::string> out;
  for (const EntityStat& entity : entities_) {
    if (!entity.category.empty()) out.push_back(entity.category);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

IntegratedSample IntegratedSample::Filter(
    const std::function<bool(const EntityStat&)>& keep) const {
  // `keep` reads the final fused state, so one verdict per entity covers
  // every observation of it. Kept entities therefore first appear in the
  // kept log in entities() order, and each takes its output index, in
  // order, from its verdict. An entity's multiplicity is its number of log
  // entries, which sizes its report buffer and the output log exactly.
  IntegratedSample out(policy_);
  std::vector<int32_t> entity_map(entities_.size(), -1);
  size_t kept_observations = 0;
  for (size_t e = 0; e < entities_.size(); ++e) {
    const EntityStat& stat = entities_[e];
    if (!keep(stat)) continue;
    entity_map[e] = static_cast<int32_t>(out.entities_.size());
    out.entities_.push_back({stat.key, 0.0, 0, stat.category});
    out.reports_.emplace_back().reserve(
        static_cast<size_t>(stat.multiplicity));
    kept_observations += static_cast<size_t>(stat.multiplicity);
  }
  out.log_.reserve(kept_observations);

  // Replay the kept log in arrival order. Sources take output indices on
  // first sight, which reproduces Add's first-contribution order.
  std::vector<int32_t> source_map(source_names_.size(), -1);
  std::vector<int64_t> source_counts;
  for (const RawObservation& entry : log_) {
    const int32_t entity = entity_map[entry.entity_index];
    if (entity < 0) continue;
    int32_t& source = source_map[entry.source_index];
    if (source < 0) {
      source = static_cast<int32_t>(out.source_names_.size());
      out.source_names_.push_back(source_names_[entry.source_index]);
      source_counts.push_back(0);
    }
    ++source_counts[source];
    out.Record(source, entity, entry.value);
  }

  // The lookup structures Add maintains incrementally, built once from the
  // final state.
  out.index_.reserve(out.entities_.size());
  for (size_t e = 0; e < out.entities_.size(); ++e) {
    out.index_.emplace(out.entities_[e].key, e);
    ++out.multiplicity_histogram_[out.entities_[e].multiplicity];
  }
  out.source_index_.reserve(out.source_names_.size());
  for (size_t s = 0; s < out.source_names_.size(); ++s) {
    out.source_index_.emplace(out.source_names_[s], static_cast<int32_t>(s));
    out.source_sizes_.emplace(out.source_names_[s], source_counts[s]);
  }
  return out;
}

Table IntegratedSample::ToTable(const std::string& table_name,
                                const std::string& value_column) const {
  Schema schema({{"entity", ValueType::kString},
                 {value_column, ValueType::kDouble},
                 {"observations", ValueType::kInt64},
                 {"category", ValueType::kString}});
  Table table(table_name, schema);
  for (const EntityStat& e : entities_) {
    table.AppendUnchecked({Value(e.key), Value(e.value),
                           Value(e.multiplicity),
                           e.category.empty() ? Value::Null()
                                              : Value(e.category)});
  }
  return table;
}

}  // namespace uuq
