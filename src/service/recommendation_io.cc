#include "service/recommendation_io.h"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/strings.h"

namespace ipool {

int64_t StoredRecommendation::TargetAt(double t) const {
  const auto& schedule = recommendation.pool_size_per_bin;
  if (t < start_time) return schedule.front();
  // Range-check the bin index as a double first: a document the parser
  // accepts (start=-1e30) can put it far outside size_t, where the
  // conversion is undefined.
  const double raw = (t - start_time) / interval_seconds;
  if (!(raw < static_cast<double>(schedule.size()))) return schedule.back();
  return schedule[static_cast<size_t>(raw)];
}

std::string SerializeRecommendation(const StoredRecommendation& stored) {
  std::ostringstream out;
  out << "v1\n";
  out << "model=" << stored.recommendation.model_name << "\n";
  out << "pipeline=" << PipelineKindToString(stored.recommendation.pipeline)
      << "\n";
  out << StrFormat("start=%.6f\n", stored.start_time);
  out << StrFormat("interval=%.6f\n", stored.interval_seconds);
  out << "pool=";
  const auto& pool = stored.recommendation.pool_size_per_bin;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (i > 0) out << ",";
    out << pool[i];
  }
  out << "\ndemand=";
  const auto& demand = stored.recommendation.predicted_demand;
  for (size_t i = 0; i < demand.size(); ++i) {
    if (i > 0) out << ",";
    out << StrFormat("%.6g", demand[i]);
  }
  out << "\n";
  return out.str();
}

namespace {

Result<std::pair<std::string, std::string>> SplitKeyValue(
    const std::string& line) {
  const size_t eq = line.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("malformed recommendation line: " + line);
  }
  return std::make_pair(line.substr(0, eq), line.substr(eq + 1));
}

// Splits a comma-separated list, applying `parse` to every item. Empty
// items ("1,,2", trailing commas) are corruption, not formatting slack; an
// entirely empty value yields an empty list (the serializer's shape for a
// pipeline with no demand forecast).
template <typename T, typename ParseFn>
Status ParseList(const std::string& value, size_t max_items, ParseFn parse,
                 std::vector<T>* out) {
  if (value.empty()) return Status::OK();
  size_t begin = 0;
  while (true) {
    const size_t comma = value.find(',', begin);
    const std::string item = value.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (item.empty()) {
      return Status::InvalidArgument("empty list item in recommendation");
    }
    if (out->size() >= max_items) {
      return Status::InvalidArgument(
          StrFormat("recommendation list exceeds %zu items", max_items));
    }
    IPOOL_ASSIGN_OR_RETURN(T parsed, parse(item));
    out->push_back(parsed);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return Status::OK();
}

}  // namespace

Result<StoredRecommendation> ParseRecommendation(const std::string& text) {
  // This parser faces the network (GetRecommendation payloads), not just
  // operator-written files: cap sizes before touching content so a hostile
  // document cannot balloon memory, and parse numbers strictly so truncated
  // or bit-flipped values fail instead of silently reading as a prefix.
  if (text.size() > kMaxRecommendationBytes) {
    return Status::InvalidArgument(
        StrFormat("recommendation document of %zu bytes exceeds cap %zu",
                  text.size(), kMaxRecommendationBytes));
  }
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "v1") {
    return Status::InvalidArgument("unsupported recommendation format");
  }
  StoredRecommendation stored;
  bool saw_model = false, saw_pipeline = false, saw_start = false,
       saw_interval = false, saw_pool = false, saw_demand = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    IPOOL_ASSIGN_OR_RETURN(auto kv, SplitKeyValue(line));
    const std::string& key = kv.first;
    const std::string& value = kv.second;
    if (key == "model") {
      if (saw_model) return Status::InvalidArgument("duplicate model field");
      saw_model = true;
      stored.recommendation.model_name = value;
    } else if (key == "pipeline") {
      if (saw_pipeline) {
        return Status::InvalidArgument("duplicate pipeline field");
      }
      saw_pipeline = true;
      if (value == "E2E") {
        stored.recommendation.pipeline = PipelineKind::kEndToEnd;
      } else if (value == "2-step") {
        stored.recommendation.pipeline = PipelineKind::k2Step;
      } else {
        return Status::InvalidArgument("unknown pipeline kind: " + value);
      }
    } else if (key == "start") {
      if (saw_start) return Status::InvalidArgument("duplicate start field");
      saw_start = true;
      IPOOL_ASSIGN_OR_RETURN(stored.start_time, ParseDouble(value));
    } else if (key == "interval") {
      if (saw_interval) {
        return Status::InvalidArgument("duplicate interval field");
      }
      saw_interval = true;
      IPOOL_ASSIGN_OR_RETURN(stored.interval_seconds, ParseDouble(value));
      if (stored.interval_seconds <= 0.0) {
        return Status::InvalidArgument("non-positive interval");
      }
    } else if (key == "pool") {
      if (saw_pool) return Status::InvalidArgument("duplicate pool field");
      saw_pool = true;
      IPOOL_RETURN_NOT_OK(ParseList<int64_t>(
          value, kMaxRecommendationBins,
          [](const std::string& item) -> Result<int64_t> {
            IPOOL_ASSIGN_OR_RETURN(int64_t n, ParseInt64(item));
            if (n < 0) {
              return Status::InvalidArgument("negative pool size: " + item);
            }
            return n;
          },
          &stored.recommendation.pool_size_per_bin));
    } else if (key == "demand") {
      if (saw_demand) return Status::InvalidArgument("duplicate demand field");
      saw_demand = true;
      IPOOL_RETURN_NOT_OK(ParseList<double>(
          value, kMaxRecommendationBins,
          [](const std::string& item) { return ParseDouble(item); },
          &stored.recommendation.predicted_demand));
    } else {
      return Status::InvalidArgument("unknown recommendation field: " + key);
    }
  }
  if (stored.recommendation.pool_size_per_bin.empty()) {
    return Status::InvalidArgument("recommendation has no pool schedule");
  }
  return stored;
}

}  // namespace ipool
