#include "tsdata/csv.h"

#include <cmath>
#include <fstream>

#include "common/strings.h"

namespace ipool {

namespace {

// Parses "a,b" rows after a header; returns (time, value) pairs. Both
// fields must parse in full: times with ParseDouble, values with
// `parse_value` (ParseDouble or ParseInt64).
template <typename T>
Result<std::vector<std::pair<double, T>>> ReadRows(
    const std::string& path, const std::string& expected_header,
    Result<T> (*parse_value)(const std::string&)) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty file: " + path);
  }
  if (line != expected_header) {
    return Status::InvalidArgument(
        StrFormat("%s: expected header '%s', got '%s'", path.c_str(),
                  expected_header.c_str(), line.c_str()));
  }
  std::vector<std::pair<double, T>> rows;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: missing comma", path.c_str(), line_number));
    }
    Result<double> time = ParseDouble(line.substr(0, comma));
    if (!time.ok()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: bad time: %s", path.c_str(), line_number,
                    time.status().message().c_str()));
    }
    Result<T> value = parse_value(line.substr(comma + 1));
    if (!value.ok()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: bad value: %s", path.c_str(), line_number,
                    value.status().message().c_str()));
    }
    rows.push_back({*time, *value});
  }
  if (rows.empty()) {
    return Status::InvalidArgument("no data rows in " + path);
  }
  return rows;
}

// Checks uniform spacing and returns the interval.
template <typename T>
Result<double> InferInterval(const std::vector<std::pair<double, T>>& rows,
                             const std::string& path) {
  if (rows.size() < 2) return kDefaultIntervalSeconds;
  const double interval = rows[1].first - rows[0].first;
  if (interval <= 0.0) {
    return Status::InvalidArgument(path + ": times must be increasing");
  }
  for (size_t i = 2; i < rows.size(); ++i) {
    const double gap = rows[i].first - rows[i - 1].first;
    if (std::fabs(gap - interval) > 1e-6 * std::max(1.0, interval)) {
      return Status::InvalidArgument(
          StrFormat("%s: non-uniform spacing at row %zu (%g vs %g)",
                    path.c_str(), i + 2, gap, interval));
    }
  }
  return interval;
}

}  // namespace

Status SaveTimeSeriesCsv(const TimeSeries& series, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::Unavailable("cannot write " + path);
  }
  out << "time_seconds,value\n";
  for (size_t i = 0; i < series.size(); ++i) {
    out << StrFormat("%.6f,%.9g\n", series.TimeAt(i), series.value(i));
  }
  return out.good() ? Status::OK() : Status::Unavailable("write failed: " + path);
}

Result<TimeSeries> LoadTimeSeriesCsv(const std::string& path) {
  IPOOL_ASSIGN_OR_RETURN(auto rows,
                         ReadRows(path, "time_seconds,value", &ParseDouble));
  IPOOL_ASSIGN_OR_RETURN(double interval, InferInterval(rows, path));
  std::vector<double> values;
  values.reserve(rows.size());
  for (const auto& [time, value] : rows) values.push_back(value);
  return TimeSeries(rows.front().first, interval, std::move(values));
}

Status SaveScheduleCsv(const StoredSchedule& schedule,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::Unavailable("cannot write " + path);
  }
  out << "time_seconds,pool_size\n";
  for (size_t i = 0; i < schedule.pool_size_per_bin.size(); ++i) {
    out << StrFormat(
        "%.6f,%ld\n",
        schedule.start_time + schedule.interval_seconds * static_cast<double>(i),
        schedule.pool_size_per_bin[i]);
  }
  return out.good() ? Status::OK() : Status::Unavailable("write failed: " + path);
}

Result<StoredSchedule> LoadScheduleCsv(const std::string& path) {
  IPOOL_ASSIGN_OR_RETURN(
      auto rows, ReadRows(path, "time_seconds,pool_size", &ParseInt64));
  IPOOL_ASSIGN_OR_RETURN(double interval, InferInterval(rows, path));
  StoredSchedule schedule;
  schedule.start_time = rows.front().first;
  schedule.interval_seconds = interval;
  for (const auto& [time, size] : rows) {
    if (size < 0) {
      return Status::InvalidArgument(path + ": negative pool size");
    }
    schedule.pool_size_per_bin.push_back(size);
  }
  return schedule;
}

}  // namespace ipool
